// Memory controller: the server side of the softcache.
//
// The MC owns the full program image (given to it "as a gcc-generated ELF
// binary image" in the paper; here as an image::Image) plus the program's
// data segments, and services chunk/data requests arriving as serialized
// protocol frames. It has no access to the client's Machine — the only
// coupling is the byte protocol, keeping the MC/CC split a real boundary.
//
// The paper's economic argument is that one powerful server amortizes its
// cost across many cheap embedded clients, so the MC is layered:
//
//   McServer   — the shared core: the pristine program image, the chunker,
//                a memoized translation cache (translate each chunk ONCE,
//                serve the memoized artifact to every client), and the
//                shared read-only data store.
//   McSession  — everything per-client: boot-epoch handling, the replay
//                cache, pending write buffers and journal watermarks, and
//                copy-on-write private text/data segments (shared pages
//                served read-only, faulted to private on the first
//                kTextWrite / kDataWriteback).
//   MemoryController — the endpoint facade: demultiplexes frames onto
//                sessions by the client id packed in the type word (or by
//                switch port via HandlePort).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "image/image.h"
#include "image/layout.h"
#include "softcache/chunker.h"
#include "softcache/config.h"
#include "softcache/integrity.h"
#include "softcache/protocol.h"
#include "util/stats.h"
#include "util/zero_pages.h"

namespace sc::obs {
class MetricsRegistry;
}

namespace sc::softcache {

// Packs/unpacks the chunk metadata carried in Reply::aux:
// exit kind in bits 31..28, jump_folded in bit 27, entry word in bits 26..0.
inline uint32_t PackChunkMeta(ExitKind exit, uint32_t entry_word, bool folded) {
  return (static_cast<uint32_t>(exit) << 28) | (folded ? 1u << 27 : 0u) |
         (entry_word & 0x07ffffff);
}
inline ExitKind UnpackExit(uint32_t aux) {
  return static_cast<ExitKind>(aux >> 28);
}
inline bool UnpackJumpFolded(uint32_t aux) { return (aux >> 27) & 1; }
inline uint32_t UnpackEntryWord(uint32_t aux) { return aux & 0x07ffffff; }

// Content digest of a translated chunk, computed over exactly the fields a
// chunk reply carries on the wire (addr, packed meta, branch target, words);
// a snooping client computing ChunkDigest over the received frame's fields
// gets the same value, so digest equality means bit-identical installed code.
inline uint64_t DigestOfChunk(const Chunk& chunk) {
  return ChunkDigest(
      chunk.orig_addr,
      PackChunkMeta(chunk.exit, chunk.entry_word, chunk.jump_folded),
      chunk.taken_target,
      reinterpret_cast<const uint8_t*>(chunk.words.data()),
      chunk.words.size() * 4);
}

// A translated chunk as the server hands it out: memoized chunks are shared
// with every requester and never modified in place (a heal or an injected
// fault replaces the entry's pointer), so a reply is serialized straight
// from the memo's words without copying them first.
using ChunkRef = std::shared_ptr<const Chunk>;

// Flush-barrier interval: every N applied write ops of one type (text writes
// or data writebacks) a session folds its pending-write buffer into its
// stable image. Clients mirror this constant to truncate their upstream
// journals: once `floor((acked_ops)/N)*N` ops of a type are acked, that
// prefix is durable across a crash and need never be replayed (see
// docs/PROTOCOL.md).
inline constexpr uint32_t kMcWriteFlushIntervalOps = 32;

// Granularity of a session's copy-on-write private data segment: data is
// served from the server's shared pristine store until a session's first
// writeback touches a page, which faults a private copy of just that page.
inline constexpr uint32_t kMcCowPageBytes = 4096;

// Per-session counters, written only by the session's own frame path
// (stop-and-wait) or, for restarts, in the loop's park-all section.
struct McSessionStats {
  uint64_t requests = 0;             // frames served (parsed, routed right)
  uint64_t replays_suppressed = 0;
  uint64_t batches_served = 0;
  uint64_t chunks_prefetched = 0;
  uint64_t restarts = 0;
  uint64_t stale_epoch_rejects = 0;
  uint64_t write_flushes = 0;
  uint64_t text_cow_faults = 0;      // 0 or 1: private text materialized
  uint64_t data_cow_page_faults = 0; // private data pages materialized
  uint64_t shared_requests = 0;      // kChunkSharedRequest frames from this id
  uint64_t digest_replies = 0;       // payload-less replies this session got
  uint64_t digest_bytes_saved = 0;   // body bytes they kept off the wire
  uint64_t misrouted_frames = 0;     // arrived here naming another client id
  uint64_t unparseable_frames = 0;   // arrived here and failed to parse
};

// Server-wide totals, stored nowhere: McServer::stats() sums the owners
// when read. A frame's counts live in the session it arrived on, a memo
// event's in the shard whose mutex the event holds. Read at quiescence:
// after the run, or inside a park-all exclusive section / fleet safepoint
// when no frame is in flight.
struct McServerStats {
  uint64_t requests_served = 0;      // every frame handled, incl. garbage
  uint64_t replays_suppressed = 0;   // write retransmits answered from cache
  uint64_t batches_served = 0;       // kChunkBatchReply frames built
  uint64_t chunks_prefetched = 0;    // speculative chunks shipped in batches
  uint64_t restarts = 0;             // session restart (crash) events
  uint64_t stale_epoch_rejects = 0;  // pre-restart-epoch writes rejected
  uint64_t write_flushes = 0;        // flush barriers crossed
  uint64_t translates = 0;           // chunk cuts actually performed
  uint64_t translate_memo_hits = 0;  // cuts served from the memo cache
  uint64_t memo_invalidations = 0;   // memo entries dropped by text writes
  uint64_t memo_evictions = 0;       // memo entries displaced by the bound
  uint64_t misrouted_frames = 0;     // embedded client id != switch port
  uint64_t shared_requests = 0;      // kChunkSharedRequest frames handled
  uint64_t digest_replies = 0;       // coalesced (payload-less) chunk replies
  uint64_t digest_bytes_saved = 0;   // body bytes the digest path kept off
                                     // the wire
  // Server-side integrity fault domain (the memoized translation cache).
  uint64_t memo_flips_injected = 0;      // bits flipped into memo entries
  uint64_t memo_corruptions_detected = 0;  // digest mismatches found
  uint64_t memo_heals = 0;           // entries re-cut from the pristine image
  uint64_t memo_scrubs = 0;          // background memo scrub passes
};

// Shared-core tuning. The defaults reproduce the single-server behavior
// (one shard, a memo bound far above any workload's chunk population, no
// digest coalescing unless a client asks for it).
struct McServerConfig {
  // Memo/chunker shards: the pristine text's address range is partitioned
  // into `shards` contiguous slices, each owning the memo cache (and the
  // translation work) for chunk addresses in its slice. Every chunk address
  // maps to exactly one shard, so fleet-wide translation work stays "once
  // per chunk" no matter how many shards serve it.
  uint32_t shards = 1;
  // Total memoized-translation entries across all shards. When a shard's
  // slice of the budget fills, the entry with the lowest fleet-wide demand
  // temperature is evicted (re-translation on a later demand is the cost of
  // staying bounded under text-write invalidation churn).
  size_t memo_capacity = 4096;
  // Published-digest window: how many broadcast chunk digests the server
  // remembers. Forgetting one only costs a redundant body transmission.
  size_t published_capacity = 8192;
  // Server-side memory-fault injection into memoized translations, ticked
  // once per CutShared arrival. The memo is NOT trusted either way: every
  // entry is digest-stamped on insert and verified on every hit, with a
  // mismatch healed by re-translating from the pristine image (invisible
  // to the requesting client beyond server-side counters).
  MemFaultConfig memfault;
  // Event-loop backpressure bound: the most submitters that may wait on one
  // McServerLoop lane, not counting the one being served, before new
  // arrivals defer (0 = unbounded, the historical behavior). See
  // server_loop.h.
  size_t max_queue = 0;
  // Retired: the server has no worker threads. Each client thread serves
  // its own frame on its shard's McServerLoop lane, so translations in
  // different shards proceed concurrently without any. The field survives,
  // always 0, only because the repo benchmark (perfbench/sample.cpp) still
  // assigns it; the MultiClientSystem constructor SC_CHECKs that it is 0.
  uint32_t workers = 0;
};

// The shared server core: immutable per-program state plus the memoized
// translation cache. The pristine image and shared data store are never
// mutated — client writes land in per-session copy-on-write overlays — so
// one translation artifact is valid for every session reading shared text.
//
// Concurrency: there is NO core-wide lock. Each memo shard is an
// independently owned slice — its mutex covers that slice's memo map, heat
// table, fault-injector stream, service-time histogram and memo counters —
// so translations in different address ranges proceed concurrently. The
// only cross-shard state is the published-digest window (its own leaf
// mutex); sessions' counter slots live here only so stats() can sum them.
// At most one shard lock is ever held at a time (range scans lock shards
// one-by-one in ascending index order); the full lock-order table lives in
// docs/DESIGN.md.
class McServer {
 public:
  McServer(const image::Image& image, Style style, uint32_t max_block_instrs,
           uint32_t max_trace_blocks, const McServerConfig& config = {})
      : image_(image),
        style_(style),
        max_block_instrs_(max_block_instrs),
        max_trace_blocks_(max_trace_blocks),
        config_(config),
        shards_(config.shards == 0 ? 1 : config.shards),
        memo_shards_(shards_) {
    // The server holds the authoritative copy of ALL program memory: the
    // pristine text plus data/bss/heap/stack backing for the D-cache
    // protocol. Sessions overlay their private writes on top. The store is
    // sized once from empty on zero pages, so only the image's initialized
    // data costs resident memory.
    data_.resize(image::kStackTop + 16 - image.data_base);
    std::copy_n(image.data.begin(), std::min(image.data.size(), data_.size()),
                data_.begin());
    for (MemoShard& shard : memo_shards_) {
      shard.heat.resize(image.text.size() / 4);
    }
    if (config_.memfault.enabled()) {
      // One independent fault stream per shard slice (substream = shard
      // index), so concurrent shards never contend on — or perturb — each
      // other's RNG. Shard 0's stream is byte-identical to the historical
      // single-stream injector.
      for (uint32_t s = 0; s < shards_; ++s) {
        memo_shards_[s].inj = std::make_unique<MemFaultInjector>(
            config_.memfault, FaultDomain::kMemo, s);
      }
    }
  }

  const image::Image& image() const { return image_; }
  Style style() const { return style_; }
  uint32_t DataBase() const { return image_.data_base; }
  uint32_t DataLimit() const {
    return image_.data_base + static_cast<uint32_t>(data_.size());
  }
  // The shared pristine data store (no session overlays applied).
  using DataStore = std::vector<uint8_t, util::ZeroPageAllocator<uint8_t>>;
  const DataStore& shared_data() const { return data_; }

  // Memoized translation from the shared pristine text: the first request
  // for a chunk address pays the cut, every later request (from ANY session)
  // is a memo hit. The memo key is the requested address — the chunking
  // style and block-size caps are fixed per server, so (addr, style,
  // max_block_instrs) degenerates to addr alone.
  util::Result<ChunkRef> CutShared(uint32_t addr);

  // Un-memoized translation from a session's private text image (after that
  // session's first kTextWrite made its text diverge from the shared copy).
  util::Result<ChunkRef> CutPrivate(const image::Image& text_image,
                                    uint32_t addr);

  // Background memo scrub: verifies every memoized entry against its
  // install-time digest, healing mismatches by re-cutting from the pristine
  // image (the server's stable store — corruption can never propagate past
  // it). Guest-invisible; counters only. The fleet scheduler calls it at
  // every client scrub pass, at any thread count: each shard is scrubbed
  // under its own lock, so it may race frame service on other shards.
  // `around`, when set, is called once per shard as around(shard, scrub)
  // and must call scrub() once: a traced fleet installs the shard's trace
  // lane there, so its memo_corrupt instants land in that lane.
  using ShardScope = std::function<void(uint32_t shard,
                                        const std::function<void()>& scrub)>;
  void ScrubMemo(const ShardScope& around = nullptr);

  // Drops every memoized chunk overlapping [addr, addr+len). Called on any
  // session's kTextWrite: the writing session stops reading shared text
  // entirely (COW), but the write still signals that the artifact may be
  // rebuilt, and other sessions' already-installed copies are untouched
  // (they hold their own installed words client-side).
  void InvalidateMemoRange(uint32_t addr, uint32_t len);

  // --- Content-addressed reply coalescing (see protocol.h) ---
  // Records that a chunk body with this digest was transmitted on the
  // broadcast medium (every attached client snooped it). Bounded FIFO.
  void PublishDigest(uint64_t digest);
  // True while the server still believes every attached client holds the
  // body for `digest`; a false negative only costs a redundant body.
  bool DigestPublished(uint64_t digest) const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_.count(digest) != 0;
  }

  // The shard serving chunk address `addr`: contiguous slices of the
  // pristine text range, addresses outside text fold into shard 0.
  uint32_t ShardFor(uint32_t addr) const;
  uint32_t shards() const { return shards_; }
  uint64_t shard_translates(uint32_t shard) const {
    std::lock_guard<std::mutex> lock(memo_shards_[shard].mu);
    return memo_shards_[shard].translates;
  }
  uint64_t shard_memo_hits(uint32_t shard) const {
    std::lock_guard<std::mutex> lock(memo_shards_[shard].mu);
    return memo_shards_[shard].memo_hits;
  }
  size_t shard_memo_entries(uint32_t shard) const {
    std::lock_guard<std::mutex> lock(memo_shards_[shard].mu);
    return memo_shards_[shard].memo.size();
  }
  size_t memo_entries() const;
  size_t published_digests() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_.size();
  }

  // Host nanoseconds per translation request (memo hits and cuts both
  // count — the histogram measures what a request costs the shard, and a
  // hit is the cheap mode). One histogram per shard, written under that
  // shard's mutex; host time only, never part of snapshot determinism, and
  // only exported at quiescence.
  const util::Histogram& shard_service_ns(uint32_t shard) const {
    return memo_shards_[shard].service_ns;
  }

  // Memo-cache residency rows for the Inspector: every memoized chunk with
  // its owning shard, translated size, and fleet-wide demand heat.
  // Deterministically ordered (shard, then address).
  struct MemoEntryView {
    uint32_t shard = 0;
    uint32_t addr = 0;
    uint32_t span_bytes = 0;
    uint32_t words = 0;
    uint32_t heat = 0;
  };
  std::vector<MemoEntryView> SnapshotMemo() const;

  // Server totals: the sum of every session's and every shard's counters
  // (see McServerStats). Quiescent reads only.
  McServerStats stats() const;

  // A new session's counter slot, stable for the server's lifetime. Called
  // at session construction (under sessions_mu_), never during stats().
  McSessionStats* AddSessionStats() { return &session_stats_.emplace_back(); }

 private:
  // One memoized translation plus the content digest stamped at insert.
  // The digest reuses DigestOfChunk, so "memo entry verifies" and "reply
  // frame verifies client-side" are the same 64-bit statement.
  struct MemoEntry {
    ChunkRef chunk;
    uint64_t digest = 0;
  };

  // One independently owned slice of the server core: the memoized
  // translations for this shard's address range, the demand-heat table that
  // ranks their eviction, the shard's integrity fault stream, its
  // service-time histogram and its counters — all guarded by the slice's
  // own mutex, so two shards never serialize against each other.
  struct MemoShard {
    mutable std::mutex mu;
    std::map<uint32_t, MemoEntry> memo;  // requested addr -> translation
    // Demand temperature per text word (every CutShared demand, across all
    // sessions); the eviction-ranking signal. Spans the whole text on zero
    // pages, so only this shard's slice is ever touched.
    std::vector<uint32_t, util::ZeroPageAllocator<uint32_t>> heat;
    // This shard's memo fault stream (null = no injection configured).
    std::unique_ptr<MemFaultInjector> inj;
    // Service-time spread: one bucket per ~8 us up to 1 ms; memo hits land
    // in the first bucket, cold cuts spread out, outliers clamp.
    util::Histogram service_ns{0, 1e6, 128};
    uint64_t translates = 0;     // shared cuts, heals included
    uint64_t memo_hits = 0;
    uint64_t private_cuts = 0;   // CutPrivate calls attributed here
    uint64_t evictions = 0;
    uint64_t invalidations = 0;  // entries dropped by text writes
    uint64_t flips_injected = 0;
    uint64_t heals = 0;          // = corruptions found: each is healed
    uint64_t scrubs = 0;         // ScrubMemo passes; shard 0 only
  };

  util::Result<Chunk> Cut(const image::Image& text_image, uint32_t addr) const;
  // Index of chunk start `addr` in a shard's heat array, or kNoHeat for
  // unaligned and non-text addresses (such a demand never memoizes, so its
  // heat is never read).
  static constexpr uint32_t kNoHeat = ~0u;
  uint32_t HeatIndex(uint32_t addr) const {
    if (addr % 4 != 0 || !image_.ContainsText(addr)) return kNoHeat;
    return (addr - image_.text_base) / 4;
  }
  // Displaces the lowest-heat entry of `shard` (called when a shard's slice
  // of the memo budget is full). Caller holds shard->mu.
  void EvictColdest(MemoShard* shard);
  // Fault injection: flips one bit in a uniformly chosen memoized chunk of
  // `shard` (the slice the triggering demand hit — each slice is its own
  // fault domain). False when that slice's memo is empty. Caller holds
  // shard->mu.
  bool CorruptMemoBit(MemoShard* shard);

  image::Image image_;  // pristine; NEVER mutated (writes go to sessions)
  Style style_;
  uint32_t max_block_instrs_;
  uint32_t max_trace_blocks_;
  McServerConfig config_;
  uint32_t shards_;
  // Pristine shared data/bss/heap/stack, [data_base, kStackTop + 16): about
  // 15 MiB of lazy zero pages of which only the image's data is written.
  DataStore data_;
  // Deque, not vector: slices hold mutexes (non-movable) and their
  // addresses must stay stable for the registry's histogram pointers.
  mutable std::deque<MemoShard> memo_shards_;
  // Published-digest window (bounded FIFO). Deliberately cross-shard: a
  // digest names content, not an address range, and the window must answer
  // "did this body ever cross the broadcast medium" fleet-wide. Guarded by
  // its own leaf mutex (never held together with any other lock).
  mutable std::mutex published_mu_;
  std::map<uint64_t, uint8_t> published_;
  std::deque<uint64_t> published_fifo_;
  // One slot per session (AddSessionStats); deque for stable addresses.
  std::deque<McSessionStats> session_stats_;
};

// One client's server-side state: epoch fencing, replay cache, pending
// writes + journal watermarks, and the copy-on-write overlays holding this
// client's private view of text and data.
class McSession {
 public:
  McSession(McServer& server, uint32_t client_id)
      : server_(server),
        client_id_(client_id),
        stats_(*server.AddSessionStats()) {}

  // Handles one frame that arrived on this session's port; returns the
  // serialized reply frame. A frame that fails to parse, or that names
  // another client id (spoofed or misrouted), is rejected with a kError
  // reply and counted here without touching any session state; the rest go
  // through the epoch fence, the replay cache and dispatch.
  std::vector<uint8_t> HandleFrame(const std::vector<uint8_t>& request_bytes);

  // Crash model: this session's server-side process dies and comes back up.
  // All volatile state is lost — the replay cache and the pending
  // (unflushed) write buffers — while the stable image (pristine state plus
  // every flushed write) persists. The boot epoch increments so the client
  // can detect the restart from the epoch stamped into every reply. Other
  // sessions are unaffected.
  void Restart();

  uint32_t client_id() const { return client_id_; }
  uint32_t epoch() const { return epoch_; }
  // Applied = every acked write op this boot lineage; stable = the flushed
  // prefix that survives a crash. Exposed for tests and the kHelloAck
  // watermarks.
  uint64_t applied_text_ops() const { return applied_text_ops_; }
  uint64_t stable_text_ops() const { return stable_text_ops_; }
  uint64_t applied_data_ops() const { return applied_data_ops_; }
  uint64_t stable_data_ops() const { return stable_data_ops_; }

  // This session's view of program text: the shared pristine image until the
  // first kTextWrite, the private COW copy afterwards.
  const image::Image& text_view() const {
    return private_image_ ? *private_image_ : server_.image();
  }
  bool has_private_text() const { return private_image_ != nullptr; }
  size_t private_data_pages() const { return data_pages_.size(); }
  size_t stable_private_data_pages() const { return stable_pages_.size(); }
  // Working-overlay page indexes (kMcCowPageBytes each), ascending; the
  // Inspector's COW footprint rows.
  std::vector<uint32_t> PrivateDataPageIndexes() const {
    std::vector<uint32_t> pages;
    pages.reserve(data_pages_.size());
    for (const auto& [index, bytes] : data_pages_) pages.push_back(index);
    return pages;
  }
  // Writes applied to the working overlay but not yet flushed (exactly what
  // a crash would lose right now).
  size_t pending_text_writes() const { return pending_text_.size(); }
  size_t pending_data_writes() const { return pending_data_.size(); }

  // Reads `len` bytes at `addr` through this session's data overlay (private
  // pages where faulted, the shared store elsewhere). Caller checks bounds.
  void ReadData(uint32_t addr, uint32_t len, uint8_t* out) const;

  const McSessionStats& stats() const { return stats_; }

 private:
  // Replay cache entry: a recently applied write-type request, identified by
  // (type, seq, addr, payload checksum), with the reply it produced. An
  // unreliable transport may deliver the same write twice (duplication) or
  // the client may retransmit after losing the ack; re-applying would be
  // wrong in general (the client may have mutated the region in between via
  // a later request), so identical frames are answered from cache. Entries
  // are epoch-tagged: a match from before a restart must never be served
  // (the write it acknowledges may not have survived the crash).
  struct ReplayEntry {
    uint32_t type = 0;
    uint32_t seq = 0;
    uint32_t addr = 0;
    uint32_t payload_checksum = 0;
    uint32_t epoch = 0;
    std::vector<uint8_t> reply_bytes;
  };

  // A write applied to the working overlay but not yet folded into the
  // stable overlay — exactly the state a crash loses.
  struct PendingWrite {
    uint32_t addr = 0;
    std::vector<uint8_t> bytes;
  };

  using PageMap = std::map<uint32_t, std::vector<uint8_t>>;  // page index -> bytes

  // Epoch fence and replay cache around HandleParsed.
  std::vector<uint8_t> HandleRequest(const Request& request);
  // Serves one request; returns the finished reply frame.
  std::vector<uint8_t> HandleParsed(const Request& request);
  Reply ErrorReply(uint32_t seq, const std::string& message) const;
  // Builds the kChunkBatchReply for a demanded chunk: walks the static CFG
  // from `primary` up to the hinted depth and packs the candidates, in BFS
  // order, behind the demanded chunk until the chunk-count/byte budgets run
  // out. With `publish_digests` every packed body's digest is published (the
  // batch is about to cross the broadcast medium and be snooped fleet-wide).
  Reply BatchReply(const Request& request, const Chunk& primary,
                   const PrefetchHints& hints, bool publish_digests);
  // Translation through the server: memoized while this session reads shared
  // text, un-memoized once it holds a private (written) text image.
  util::Result<ChunkRef> CutChunk(uint32_t addr);

  // Stamps this session's id + epoch into the reply and serializes it
  // (around `body`, when given, instead of the reply's own payload).
  std::vector<uint8_t> Finish(Reply reply) const;
  std::vector<uint8_t> Finish(Reply& header, const uint8_t* body,
                              size_t size) const;
  // Materializes the private text image (first kTextWrite).
  void FaultTextPrivate();
  // Writes `len` bytes at `addr` into `pages`, faulting any missing page
  // from the server's shared pristine store first.
  void WritePages(PageMap* pages, uint32_t addr, const uint8_t* src,
                  size_t len, bool count_faults);
  void RecordTextWrite(uint32_t addr, const std::vector<uint8_t>& bytes);
  void RecordDataWrite(uint32_t addr, const std::vector<uint8_t>& bytes);

  McServer& server_;
  uint32_t client_id_;
  std::deque<ReplayEntry> replay_cache_;

  // COW text: null while this session reads the shared pristine image; a
  // private copy after its first kTextWrite. `stable_text_` mirrors the
  // private text as of the last flush barrier.
  std::unique_ptr<image::Image> private_image_;
  std::vector<uint8_t> stable_text_;

  // COW data: private working pages overlaying the shared store, plus the
  // stable pages (pristine + flushed writes) a crash reverts to.
  PageMap data_pages_;
  PageMap stable_pages_;

  std::vector<PendingWrite> pending_text_;
  std::vector<PendingWrite> pending_data_;
  uint64_t applied_text_ops_ = 0;
  uint64_t stable_text_ops_ = 0;
  uint64_t applied_data_ops_ = 0;
  uint64_t stable_data_ops_ = 0;
  uint32_t epoch_ = 0;
  McSessionStats& stats_;  // this session's slot in the server
};

// The MC endpoint: one shared server core plus a session per client id.
// Per-client state is read through session(id), shared-core state through
// server(); client id 0 frames serialize byte-identically to the seed
// protocol.
class MemoryController {
 public:
  MemoryController(const image::Image& image, Style style,
                   uint32_t max_block_instrs, uint32_t max_trace_blocks = 1,
                   const McServerConfig& server_config = {})
      : server_(image, style, max_block_instrs, max_trace_blocks,
                server_config) {
    // Pre-create session 0 so a solo RegisterMetrics before any traffic
    // still registers the mc.s0.* counters.
    session(0);
  }

  // Handles one request frame; returns the reply frame. A direct,
  // un-switched endpoint: the frame arrives on the port its embedded client
  // id names (PeekFrameClientId; 0 for a frame too short to carry one).
  std::vector<uint8_t> Handle(const std::vector<uint8_t>& request_bytes);

  // Handles a frame arriving on switch port `port` in session(port) (see
  // McSession::HandleFrame), then runs the frame tap.
  std::vector<uint8_t> HandlePort(uint32_t port,
                                  const std::vector<uint8_t>& request_bytes);

  // Restarts every session (the whole server process dies). Single-client
  // runs see exactly the pre-refactor crash model.
  void Restart();
  // Restarts one client's session; all other sessions are unaffected.
  void RestartSession(uint32_t client_id);

  McServer& server() { return server_; }
  const McServer& server() const { return server_; }
  // The session for `client_id`, created on first use. The returned
  // reference is stable for the controller's lifetime (the map holds
  // unique_ptrs); only the map itself is guarded (sessions_mu_) — the
  // session OBJECT is owned by its client's frame path (stop-and-wait keeps
  // at most one frame per client in flight) plus the loop's park-all
  // exclusive section for restarts.
  McSession& session(uint32_t client_id);
  // Null if no frame (or session() call) has touched that id yet.
  const McSession* FindSession(uint32_t client_id) const;
  size_t sessions_active() const {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    return sessions_.size();
  }
  // Active session ids, ascending (Inspector iteration).
  std::vector<uint32_t> SessionIds() const {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    std::vector<uint32_t> ids;
    ids.reserve(sessions_.size());
    for (const auto& [id, sess] : sessions_) ids.push_back(id);
    return ids;
  }

  // Registers server aggregates plus per-session counters under
  // `prefix` (e.g. "mc." -> mc.requests_served, mc.s0.requests, ...).
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix = "mc.") const;

  // Test-only tap observing every (request bytes, reply bytes) pair exactly
  // as they cross the wire; used to prove kOff traffic is byte-identical to
  // the seed protocol.
  using FrameTap = std::function<void(const std::vector<uint8_t>& request,
                                      const std::vector<uint8_t>& reply)>;
  void set_frame_tap(FrameTap tap) { tap_ = std::move(tap); }

 private:
  McServer server_;
  // Guards the session MAP only (lookup/insert); held never across a
  // handler, so frame handling for different clients proceeds concurrently.
  mutable std::mutex sessions_mu_;
  std::map<uint32_t, std::unique_ptr<McSession>> sessions_;
  // The tap is a test-only observation point; serialize it so taps written
  // for single-threaded tests stay correct under concurrent handlers.
  std::mutex tap_mu_;
  FrameTap tap_;
};

}  // namespace sc::softcache
