#include "softcache/mc.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sc::softcache {
namespace {

// Adds the scope's host-ns duration to a shard's service-time histogram.
// Host time feeds observability only (p50/p95/p99 per shard); it never
// touches guest cycles or any snapshot-compared counter.
class ShardServiceTimer {
 public:
  explicit ShardServiceTimer(util::Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ShardServiceTimer() {
    hist_->Add(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ShardServiceTimer(const ShardServiceTimer&) = delete;
  ShardServiceTimer& operator=(const ShardServiceTimer&) = delete;

 private:
  util::Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// Bounds the replay cache. A stop-and-wait client has at most one write in
// flight, so one entry would do; a few extra make the invariant robust.
constexpr size_t kReplayCacheEntries = 64;

// Server-side caps on speculative work, independent of what the hint field
// asks for (it arrives from an untrusted client).
constexpr uint32_t kMaxPrefetchDepth = 8;
constexpr uint32_t kMaxPrefetchChunks = 32;

}  // namespace

// ---------------------------------------------------------------------------
// McServer: the shared core.

util::Result<Chunk> McServer::Cut(const image::Image& text_image,
                                  uint32_t addr) const {
  return style_ == Style::kSparc
             ? ChunkBasicBlock(text_image, addr, max_block_instrs_,
                               max_trace_blocks_)
             : ChunkProcedure(text_image, addr);
}

uint32_t McServer::ShardFor(uint32_t addr) const {
  if (shards_ <= 1) return 0;
  const uint32_t base = image_.text_base;
  const uint32_t end = image_.text_end();
  if (addr < base || addr >= end) return 0;
  const uint32_t slice = (end - base + shards_ - 1) / shards_;
  const uint32_t shard = slice == 0 ? 0 : (addr - base) / slice;
  return shard >= shards_ ? shards_ - 1 : shard;
}

util::Result<ChunkRef> McServer::CutShared(uint32_t addr) {
  const uint32_t shard_index = ShardFor(addr);
  MemoShard& shard = memo_shards_[shard_index];
  // The slice's own lock covers everything the demand touches — memo map,
  // heat table, fault stream, service histogram — so demands landing in
  // different shards run fully in parallel.
  std::lock_guard<std::mutex> lock(shard.mu);
  const ShardServiceTimer timer(&shard.service_ns);
  // Per-shard memo fault stream: one injection opportunity per translate
  // arrival in this slice (the memo has no scheduler quanta to tick on).
  // Healing is guest-invisible, so arrival-order differences across
  // thread counts only move server-side counters, never client output.
  if (shard.inj != nullptr && shard.inj->Due(nullptr)) {
    if (CorruptMemoBit(&shard)) ++shard.flips_injected;
  }
  // Fleet-wide demand heat: every demand from every session bumps it (hit
  // or miss), and the memo bound evicts its coldest entry by this signal.
  // Keyed by chunk start address, so slicing the table per shard changes
  // nothing about the values — only who owns them.
  if (const uint32_t h = HeatIndex(addr); h != kNoHeat) ++shard.heat[h];
  auto it = shard.memo.find(addr);
  if (it != shard.memo.end()) {
    // Verify-on-hit: the memoized artifact is never trusted. A mismatch is
    // healed by re-cutting from the pristine image — the one store
    // corruption cannot reach — so the requester always receives clean
    // bytes, fault storm or not.
    if (DigestOfChunk(*it->second.chunk) == it->second.digest) {
      ++shard.memo_hits;
      return it->second.chunk;
    }
    OBS_INSTANT("mc", "memo_corrupt", "addr", addr);
    auto healed = Cut(image_, addr);
    SC_CHECK(healed.ok()) << "pristine re-cut failed for memoized addr";
    ++shard.heals;
    ++shard.translates;
    it->second.digest = DigestOfChunk(*healed);
    it->second.chunk = std::make_shared<const Chunk>(std::move(*healed));
    return it->second.chunk;
  }
  auto cut = Cut(image_, addr);
  if (!cut.ok()) return cut.error();  // failures are cheap; not worth memoizing
  ++shard.translates;
  const size_t per_shard = std::max<size_t>(1, config_.memo_capacity / shards_);
  if (shard.memo.size() >= per_shard) EvictColdest(&shard);
  const uint64_t digest = DigestOfChunk(*cut);
  ChunkRef chunk = std::make_shared<const Chunk>(std::move(*cut));
  shard.memo.emplace(addr, MemoEntry{chunk, digest});
  return chunk;
}

std::vector<McServer::MemoEntryView> McServer::SnapshotMemo() const {
  // Locks one slice at a time, ascending — a point-in-time view per shard.
  // Deterministic snapshots additionally run at quiescence (the Inspector's
  // safepoint / park-all contract), where the locks are uncontended.
  std::vector<MemoEntryView> views;
  for (uint32_t s = 0; s < shards_; ++s) {
    const MemoShard& shard = memo_shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [addr, entry] : shard.memo) {
      MemoEntryView view;
      view.shard = s;
      view.addr = addr;
      view.span_bytes = entry.chunk->orig_span_bytes();
      view.words = static_cast<uint32_t>(entry.chunk->words.size());
      view.heat = shard.heat[HeatIndex(addr)];
      views.push_back(view);
    }
  }
  return views;
}

void McServer::EvictColdest(MemoShard* shard) {
  auto coldest = shard->memo.begin();
  uint32_t coldest_heat = ~0u;
  for (auto it = shard->memo.begin(); it != shard->memo.end(); ++it) {
    const uint32_t entry_heat = shard->heat[HeatIndex(it->first)];
    if (entry_heat < coldest_heat) {
      coldest_heat = entry_heat;
      coldest = it;
    }
  }
  shard->memo.erase(coldest);
  ++shard->evictions;
}

util::Result<ChunkRef> McServer::CutPrivate(const image::Image& text_image,
                                            uint32_t addr) {
  // Private cuts are un-memoized but still shard-attributed (by address
  // range) so a session with COW text shows up in the shard's service time
  // and counters. Only sessions whose text went copy-on-write get here, so
  // holding the slice lock across the cut costs the common path nothing.
  MemoShard& shard = memo_shards_[ShardFor(addr)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const ShardServiceTimer timer(&shard.service_ns);
  ++shard.private_cuts;
  auto chunk = Cut(text_image, addr);
  if (!chunk.ok()) return chunk.error();
  return std::make_shared<const Chunk>(std::move(*chunk));
}

void McServer::InvalidateMemoRange(uint32_t addr, uint32_t len) {
  const uint64_t lo = addr;
  const uint64_t hi = static_cast<uint64_t>(addr) + len;
  // A memoized chunk's span can cross the shard boundary its start address
  // hashed into, so every shard is scanned — locking one slice at a time in
  // ascending index order (no two shard locks are ever held together).
  // A demand racing in behind the scan can only re-memoize from the
  // PRISTINE text, which this write never touched (the writer went COW), so
  // a "late" re-insert is still a valid artifact.
  for (MemoShard& shard : memo_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.memo.begin(); it != shard.memo.end();) {
      const Chunk& chunk = *it->second.chunk;
      const uint64_t chunk_lo = chunk.orig_addr;
      const uint64_t chunk_hi =
          static_cast<uint64_t>(chunk.orig_addr) + chunk.orig_span_bytes();
      if (chunk_lo < hi && lo < chunk_hi) {
        ++shard.invalidations;
        it = shard.memo.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool McServer::CorruptMemoBit(MemoShard* shard) {
  if (shard->memo.empty()) return false;
  util::Rng& rng = shard->inj->rng();
  size_t k = rng.Below(shard->memo.size());
  auto it = shard->memo.begin();
  std::advance(it, static_cast<long>(k));
  if (it->second.chunk->words.empty()) return false;
  // Chunks are shared with in-flight replies, so the flip lands in a copy
  // that replaces the entry.
  auto flipped = std::make_shared<Chunk>(*it->second.chunk);
  const uint64_t bit = rng.Below(flipped->words.size() * 32);
  flipped->words[bit / 32] ^= 1u << (bit % 32);
  it->second.chunk = std::move(flipped);
  OBS_INSTANT("mc", "memo_flip", "addr", it->first);
  return true;
}

void McServer::ScrubMemo(const ShardScope& around) {
  for (uint32_t s = 0; s < shards_; ++s) {
    MemoShard& shard = memo_shards_[s];
    const auto scrub = [this, &shard, s] {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (s == 0) ++shard.scrubs;  // one pass, counted once
      for (auto& [addr, entry] : shard.memo) {
        if (DigestOfChunk(*entry.chunk) == entry.digest) continue;
        OBS_INSTANT("mc", "memo_corrupt", "addr", addr);
        auto healed = Cut(image_, addr);
        SC_CHECK(healed.ok()) << "pristine re-cut failed for memoized addr";
        ++shard.heals;
        entry.digest = DigestOfChunk(*healed);
        entry.chunk = std::make_shared<const Chunk>(std::move(*healed));
      }
    };
    if (around) {
      around(s, scrub);
    } else {
      scrub();
    }
  }
}

McServerStats McServer::stats() const {
  McServerStats total;
  for (const McSessionStats& s : session_stats_) {
    total.requests_served +=
        s.requests + s.misrouted_frames + s.unparseable_frames;
    total.replays_suppressed += s.replays_suppressed;
    total.batches_served += s.batches_served;
    total.chunks_prefetched += s.chunks_prefetched;
    total.restarts += s.restarts;
    total.stale_epoch_rejects += s.stale_epoch_rejects;
    total.write_flushes += s.write_flushes;
    total.misrouted_frames += s.misrouted_frames;
    total.shared_requests += s.shared_requests;
    total.digest_replies += s.digest_replies;
    total.digest_bytes_saved += s.digest_bytes_saved;
  }
  for (const MemoShard& shard : memo_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.translates += shard.translates + shard.private_cuts;
    total.translate_memo_hits += shard.memo_hits;
    total.memo_invalidations += shard.invalidations;
    total.memo_evictions += shard.evictions;
    total.memo_flips_injected += shard.flips_injected;
    total.memo_corruptions_detected += shard.heals;
    total.memo_heals += shard.heals;
    total.memo_scrubs += shard.scrubs;
  }
  return total;
}

size_t McServer::memo_entries() const {
  size_t total = 0;
  for (const MemoShard& shard : memo_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.memo.size();
  }
  return total;
}

void McServer::PublishDigest(uint64_t digest) {
  std::lock_guard<std::mutex> lock(published_mu_);
  if (!published_.emplace(digest, 0).second) return;  // already in window
  published_fifo_.push_back(digest);
  if (published_fifo_.size() > config_.published_capacity) {
    published_.erase(published_fifo_.front());
    published_fifo_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// McSession: per-client state.

std::vector<uint8_t> McSession::HandleFrame(
    const std::vector<uint8_t>& request_bytes) {
  auto request = Request::Parse(request_bytes);
  OBS_SPAN("mc", "handle",
           "type", request.ok() ? static_cast<uint64_t>(request->type) : 0,
           "addr", request.ok() ? request->addr : 0);
  // A traced miss carries a rid: thread its causal arrow through whichever
  // server lane (shard or loop) is installed for this frame.
  if (request.ok() && request->rid != 0) {
    if (obs::Tracer* t = obs::tracer(); t != nullptr && t->recording()) {
      t->FlowStep("flow", "miss", FlowId(request->client_id, request->rid));
    }
  }
  if (!request.ok()) {
    // Unattributable: the seq field cannot be trusted on a corrupted frame.
    // Seq 0 is reserved for these replies; clients never use it.
    ++stats_.unparseable_frames;
    return Finish(ErrorReply(0, request.error().message));
  }
  if (request->client_id != client_id_) {
    // Spoofed or misrouted: a frame claiming another client's id must never
    // touch that client's session. Reject on the arrival port.
    ++stats_.misrouted_frames;
    return Finish(ErrorReply(request->seq, "client id mismatch"));
  }
  return HandleRequest(*request);
}

std::vector<uint8_t> McSession::HandleRequest(const Request& request) {
  ++stats_.requests;
  const bool is_write = request.type == MsgType::kTextWrite ||
                        request.type == MsgType::kDataWriteback;
  if (!is_write) return HandleParsed(request);

  // A write stamped with a pre-restart epoch is a retransmission from a
  // client that has not yet observed the crash. Applying it would desync the
  // session's applied-op count from the client's journal indices (the client
  // will re-send it during journal replay); reject it instead. The error
  // reply carries the current epoch, so the client learns about the restart.
  if (request.epoch != (epoch_ & kEpochMask)) {
    ++stats_.stale_epoch_rejects;
    return Finish(ErrorReply(request.seq, "stale epoch write"));
  }

  // Idempotent writes: an identical retransmitted frame is answered from the
  // replay cache, never applied a second time. Stale-epoch entries never
  // match (the cache is also cleared on restart, but the tag makes the
  // invariant local and testable).
  const uint32_t key_type = static_cast<uint32_t>(request.type);
  const uint32_t key_checksum =
      Checksum(request.payload.data(), request.payload.size());
  for (const ReplayEntry& entry : replay_cache_) {
    if (entry.type == key_type && entry.seq == request.seq &&
        entry.addr == request.addr &&
        entry.payload_checksum == key_checksum && entry.epoch == epoch_) {
      ++stats_.replays_suppressed;
      return entry.reply_bytes;
    }
  }
  std::vector<uint8_t> reply_bytes = HandleParsed(request);
  if (replay_cache_.size() >= kReplayCacheEntries) replay_cache_.pop_front();
  replay_cache_.push_back(ReplayEntry{key_type, request.seq, request.addr,
                                      key_checksum, epoch_, reply_bytes});
  return reply_bytes;
}

std::vector<uint8_t> McSession::Finish(Reply reply) const {
  return Finish(reply, reply.payload.data(), reply.payload.size());
}

std::vector<uint8_t> McSession::Finish(Reply& header, const uint8_t* body,
                                       size_t size) const {
  header.epoch = epoch_ & kEpochMask;
  header.client_id = client_id_ & kClientIdMask;
  return header.Serialize(body, size);
}

Reply McSession::ErrorReply(uint32_t seq, const std::string& message) const {
  Reply reply;
  reply.type = MsgType::kError;
  reply.seq = seq;
  reply.payload.assign(message.begin(), message.end());
  return reply;
}

util::Result<ChunkRef> McSession::CutChunk(uint32_t addr) {
  // A session whose text has diverged (COW fault) translates from its own
  // image and bypasses the memo entirely — memoized artifacts only describe
  // the shared pristine text.
  if (private_image_) return server_.CutPrivate(*private_image_, addr);
  return server_.CutShared(addr);
}

void McSession::FaultTextPrivate() {
  if (private_image_) return;
  private_image_ = std::make_unique<image::Image>(server_.image());
  stable_text_ = private_image_->text;
  ++stats_.text_cow_faults;
  OBS_INSTANT("mc", "text_cow_fault", "client", client_id_);
}

void McSession::WritePages(PageMap* pages, uint32_t addr, const uint8_t* src,
                           size_t len, bool count_faults) {
  const McServer::DataStore& shared = server_.shared_data();
  uint32_t offset = addr - server_.DataBase();
  size_t remaining = len;
  while (remaining > 0) {
    const uint32_t page = offset / kMcCowPageBytes;
    const uint32_t in_page = offset % kMcCowPageBytes;
    const size_t n = std::min<size_t>(remaining, kMcCowPageBytes - in_page);
    auto it = pages->find(page);
    if (it == pages->end()) {
      // Fault the page private: copy the shared pristine bytes it overlays.
      const size_t base = static_cast<size_t>(page) * kMcCowPageBytes;
      const size_t avail = base < shared.size() ? shared.size() - base : 0;
      std::vector<uint8_t> copy(kMcCowPageBytes, 0);
      if (avail > 0) {
        std::memcpy(copy.data(), shared.data() + base,
                    std::min<size_t>(kMcCowPageBytes, avail));
      }
      it = pages->emplace(page, std::move(copy)).first;
      if (count_faults) ++stats_.data_cow_page_faults;
    }
    std::memcpy(it->second.data() + in_page, src, n);
    src += n;
    offset += static_cast<uint32_t>(n);
    remaining -= n;
  }
}

void McSession::ReadData(uint32_t addr, uint32_t len, uint8_t* out) const {
  const McServer::DataStore& shared = server_.shared_data();
  uint32_t offset = addr - server_.DataBase();
  uint32_t remaining = len;
  while (remaining > 0) {
    const uint32_t page = offset / kMcCowPageBytes;
    const uint32_t in_page = offset % kMcCowPageBytes;
    const uint32_t n =
        std::min<uint32_t>(remaining, kMcCowPageBytes - in_page);
    auto it = data_pages_.find(page);
    if (it != data_pages_.end()) {
      std::memcpy(out, it->second.data() + in_page, n);
    } else {
      std::memcpy(out, shared.data() + offset, n);
    }
    out += n;
    offset += n;
    remaining -= n;
  }
}

void McSession::RecordTextWrite(uint32_t addr,
                                const std::vector<uint8_t>& bytes) {
  pending_text_.push_back(PendingWrite{addr, bytes});
  ++applied_text_ops_;
  if (pending_text_.size() < kMcWriteFlushIntervalOps) return;
  for (const PendingWrite& w : pending_text_) {
    std::memcpy(stable_text_.data() + (w.addr - private_image_->text_base),
                w.bytes.data(), w.bytes.size());
  }
  pending_text_.clear();
  stable_text_ops_ = applied_text_ops_;
  ++stats_.write_flushes;
  OBS_INSTANT("mc", "flush_barrier", "text_ops", stable_text_ops_);
}

void McSession::RecordDataWrite(uint32_t addr,
                                const std::vector<uint8_t>& bytes) {
  pending_data_.push_back(PendingWrite{addr, bytes});
  ++applied_data_ops_;
  if (pending_data_.size() < kMcWriteFlushIntervalOps) return;
  for (const PendingWrite& w : pending_data_) {
    WritePages(&stable_pages_, w.addr, w.bytes.data(), w.bytes.size(),
               /*count_faults=*/false);
  }
  pending_data_.clear();
  stable_data_ops_ = applied_data_ops_;
  ++stats_.write_flushes;
  OBS_INSTANT("mc", "flush_barrier", "data_ops", stable_data_ops_);
}

void McSession::Restart() {
  if (private_image_) private_image_->text = stable_text_;
  data_pages_ = stable_pages_;
  pending_text_.clear();
  pending_data_.clear();
  applied_text_ops_ = stable_text_ops_;
  applied_data_ops_ = stable_data_ops_;
  replay_cache_.clear();
  ++epoch_;
  ++stats_.restarts;
  OBS_INSTANT("mc", "restart", "epoch", epoch_, "client", client_id_);
}

Reply McSession::BatchReply(const Request& request, const Chunk& primary,
                            const PrefetchHints& hints, bool publish_digests) {
  // Bound speculative work regardless of what the (possibly hostile) hint
  // field asks for; the byte budget is already wire-capped at 65535.
  const uint32_t depth = hints.depth > kMaxPrefetchDepth ? kMaxPrefetchDepth
                                                         : hints.depth;
  const uint32_t max_chunks = hints.max_chunks > kMaxPrefetchChunks
                                  ? kMaxPrefetchChunks
                                  : hints.max_chunks;

  Reply reply;
  reply.type = MsgType::kChunkBatchReply;
  reply.seq = request.seq;
  reply.addr = primary.orig_addr;
  reply.extra = 0;
  uint32_t count = 0;
  const auto append = [this, &reply, &count,
                       publish_digests](const Chunk& chunk) {
    AppendBatchChunk(&reply.payload, chunk.orig_addr,
                     PackChunkMeta(chunk.exit, chunk.entry_word,
                                   chunk.jump_folded),
                     chunk.taken_target, chunk.words.data(),
                     static_cast<uint32_t>(chunk.words.size()));
    ++count;
    if (publish_digests) server_.PublishDigest(DigestOfChunk(chunk));
  };
  append(primary);

  // Candidate collection: BFS over the static CFG from the demanded chunk to
  // `depth` levels, cutting every reachable chunk once. BFS discovery order
  // is the next-N priority (fallthrough first).
  const image::Image& text = text_view();
  std::vector<uint32_t> included{primary.orig_addr};
  const auto is_included = [&included](uint32_t addr) {
    for (uint32_t seen : included) {
      if (seen == addr) return true;
    }
    return false;
  };
  std::vector<ChunkRef> candidates;
  std::vector<uint32_t> frontier = ChunkSuccessors(text, primary);
  for (uint32_t level = 0; level < depth && !frontier.empty(); ++level) {
    std::vector<uint32_t> next;
    for (uint32_t addr : frontier) {
      // Bound the walk: enough slack over max_chunks that a candidate too
      // large for the byte budget can be skipped for a smaller one.
      if (candidates.size() >= 2 * kMaxPrefetchChunks) break;
      if (is_included(addr)) continue;
      auto chunk = CutChunk(addr);
      if (!chunk.ok()) continue;  // e.g. successor with no symbol cover
      const Chunk& cut = **chunk;
      if (is_included(cut.orig_addr)) continue;  // ARM: same procedure
      included.push_back(addr);
      if (cut.orig_addr != addr) included.push_back(cut.orig_addr);
      for (uint32_t succ : ChunkSuccessors(text, cut)) {
        next.push_back(succ);
      }
      candidates.push_back(std::move(*chunk));
    }
    frontier = std::move(next);
  }
  // Greedy admission under the chunk and byte budgets, in BFS order.
  uint32_t budget = hints.byte_budget;
  for (const ChunkRef& ref : candidates) {
    const Chunk& cand = *ref;
    if (count - 1 >= max_chunks) break;
    const uint32_t cost =
        kBatchChunkHeaderBytes + static_cast<uint32_t>(cand.words.size()) * 4;
    if (cost > budget) continue;
    budget -= cost;
    append(cand);
    ++stats_.chunks_prefetched;
  }
  reply.aux = count;
  ++stats_.batches_served;
  return reply;
}

std::vector<uint8_t> McSession::HandleParsed(const Request& request) {
  switch (request.type) {
    case MsgType::kChunkRequest:
    case MsgType::kChunkSharedRequest: {
      const bool shared = request.type == MsgType::kChunkSharedRequest;
      if (shared) ++stats_.shared_requests;
      auto cut = CutChunk(request.addr);
      if (!cut.ok()) {
        return Finish(ErrorReply(request.seq, cut.error().message));
      }
      const Chunk* chunk = cut->get();
      // Content-addressed coalescing: only for opted-in clients reading
      // SHARED text (digests describe the pristine artifact; a COW session's
      // private translations are never published or answered by digest).
      const bool coalesce = shared && private_image_ == nullptr;
      if (coalesce) {
        const uint64_t digest = DigestOfChunk(*chunk);
        if (server_.DigestPublished(digest)) {
          // The body already crossed the broadcast medium; every attached
          // client snooped it, so ship the digest alone.
          ++stats_.digest_replies;
          stats_.digest_bytes_saved += chunk->words.size() * 4;
          Reply reply;
          reply.type = MsgType::kChunkDigestReply;
          reply.seq = request.seq;
          reply.addr = chunk->orig_addr;
          reply.aux = static_cast<uint32_t>(digest);
          reply.extra = static_cast<uint32_t>(digest >> 32);
          return Finish(reply);
        }
      }
      const PrefetchHints hints = UnpackPrefetchHints(request.length);
      if (hints.policy != 0 && hints.max_chunks > 0) {
        return Finish(BatchReply(request, *chunk, hints,
                                 /*publish_digests=*/coalesce));
      }
      if (coalesce) server_.PublishDigest(DigestOfChunk(*chunk));
      // The chunk's words go from the (shared, immutable) memo entry
      // straight into the frame.
      Reply header;
      header.type = MsgType::kChunkReply;
      header.seq = request.seq;
      header.addr = chunk->orig_addr;
      header.aux =
          PackChunkMeta(chunk->exit, chunk->entry_word, chunk->jump_folded);
      header.extra = chunk->taken_target;
      return Finish(header,
                    reinterpret_cast<const uint8_t*>(chunk->words.data()),
                    chunk->words.size() * 4);
    }
    case MsgType::kDataRequest: {
      if (request.addr < server_.DataBase() ||
          static_cast<uint64_t>(request.addr) + request.length >
              server_.DataLimit()) {
        return Finish(ErrorReply(request.seq, "data request out of range"));
      }
      Reply reply;
      reply.type = MsgType::kDataReply;
      reply.seq = request.seq;
      reply.addr = request.addr;
      reply.payload.resize(request.length);
      ReadData(request.addr, request.length, reply.payload.data());
      return Finish(reply);
    }
    case MsgType::kTextWrite: {
      // Self-modifying code: the client pushes rewritten program text (the
      // "explicit invalidation" contract for dynamic linking and similar).
      // The write faults this session's text private — other sessions keep
      // reading the shared pristine image — and drops any memoized
      // translations overlapping the written range.
      const image::Image& text = text_view();
      if (request.addr < text.text_base ||
          static_cast<uint64_t>(request.addr) + request.payload.size() >
              text.text_end() ||
          request.addr % 4 != 0 || request.payload.size() % 4 != 0) {
        return Finish(ErrorReply(request.seq, "text write out of range"));
      }
      FaultTextPrivate();
      if (!request.payload.empty()) {
        std::memcpy(
            private_image_->text.data() +
                (request.addr - private_image_->text_base),
            request.payload.data(), request.payload.size());
      }
      server_.InvalidateMemoRange(
          request.addr, static_cast<uint32_t>(request.payload.size()));
      RecordTextWrite(request.addr, request.payload);
      Reply reply;
      reply.type = MsgType::kTextWriteAck;
      reply.seq = request.seq;
      reply.addr = request.addr;
      return Finish(reply);
    }
    case MsgType::kDataWriteback: {
      if (request.addr < server_.DataBase() ||
          static_cast<uint64_t>(request.addr) + request.payload.size() >
              server_.DataLimit()) {
        return Finish(ErrorReply(request.seq, "writeback out of range"));
      }
      if (!request.payload.empty()) {
        WritePages(&data_pages_, request.addr, request.payload.data(),
                   request.payload.size(), /*count_faults=*/true);
      }
      RecordDataWrite(request.addr, request.payload);
      Reply reply;
      reply.type = MsgType::kWritebackAck;
      reply.seq = request.seq;
      reply.addr = request.addr;
      return Finish(reply);
    }
    case MsgType::kHello: {
      // Session handshake: tell the client which boot epoch is live and how
      // many write ops of each type survived into the stable image, so it
      // can truncate its journal to exactly the non-durable suffix.
      Reply reply;
      reply.type = MsgType::kHelloAck;
      reply.seq = request.seq;
      reply.addr = epoch_;
      reply.aux = static_cast<uint32_t>(stable_text_ops_);
      reply.extra = static_cast<uint32_t>(stable_data_ops_);
      return Finish(reply);
    }
    default:
      return Finish(ErrorReply(request.seq, "unknown request type"));
  }
}

// ---------------------------------------------------------------------------
// MemoryController: the endpoint facade.

McSession& MemoryController::session(uint32_t client_id) {
  client_id &= kClientIdMask;
  // sessions_mu_ guards the MAP only; the returned session object is owned
  // by its client's (serialized, stop-and-wait) frame path.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(client_id);
  if (it == sessions_.end()) {
    it = sessions_
             .emplace(client_id,
                      std::make_unique<McSession>(server_, client_id))
             .first;
  }
  return *it->second;
}

const McSession* MemoryController::FindSession(uint32_t client_id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(client_id & kClientIdMask);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<uint8_t> MemoryController::Handle(
    const std::vector<uint8_t>& request_bytes) {
  return HandlePort(PeekFrameClientId(request_bytes), request_bytes);
}

std::vector<uint8_t> MemoryController::HandlePort(
    uint32_t port, const std::vector<uint8_t>& request_bytes) {
  std::vector<uint8_t> reply_bytes = session(port).HandleFrame(request_bytes);
  if (tap_) {
    std::lock_guard<std::mutex> lock(tap_mu_);
    tap_(request_bytes, reply_bytes);
  }
  return reply_bytes;
}

void MemoryController::Restart() {
  // Whole-server crash: callers route this through the loop's park-all
  // exclusive section, so no frame is in flight while sessions reset.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& [id, s] : sessions_) s->Restart();
}

void MemoryController::RestartSession(uint32_t client_id) {
  session(client_id).Restart();
}

void MemoryController::RegisterMetrics(obs::MetricsRegistry* registry,
                                       const std::string& prefix) const {
  // Server totals, summed from their owners on every read.
  const std::pair<const char*, uint64_t McServerStats::*> totals[] = {
      {"requests_served", &McServerStats::requests_served},
      {"replays_suppressed", &McServerStats::replays_suppressed},
      {"batches_served", &McServerStats::batches_served},
      {"chunks_prefetched", &McServerStats::chunks_prefetched},
      {"restarts", &McServerStats::restarts},
      {"stale_epoch_rejects", &McServerStats::stale_epoch_rejects},
      {"write_flushes", &McServerStats::write_flushes},
      {"translates", &McServerStats::translates},
      {"translate_memo_hits", &McServerStats::translate_memo_hits},
      {"translate_memo_invalidations", &McServerStats::memo_invalidations},
      {"translate_memo_evictions", &McServerStats::memo_evictions},
      {"misrouted_frames", &McServerStats::misrouted_frames},
      {"shared_requests", &McServerStats::shared_requests},
      {"digest_replies", &McServerStats::digest_replies},
      {"digest_bytes_saved", &McServerStats::digest_bytes_saved},
      {"memo.flips_injected", &McServerStats::memo_flips_injected},
      {"memo.corruptions_detected", &McServerStats::memo_corruptions_detected},
      {"memo.heals", &McServerStats::memo_heals},
      {"memo.scrubs", &McServerStats::memo_scrubs},
  };
  for (const auto& [name, field] : totals) {
    registry->RegisterCounter(prefix + name, [this, f = field] {
      return server_.stats().*f;
    });
  }
  registry->RegisterGauge(prefix + "sessions_active", [this] {
    return static_cast<double>(sessions_active());
  });
  registry->RegisterGauge(prefix + "translate_memo_entries", [this] {
    return static_cast<double>(server_.memo_entries());
  });
  registry->RegisterGauge(prefix + "published_digests", [this] {
    return static_cast<double>(server_.published_digests());
  });
  // Per-shard translation work: mc.shard<i>.*.
  for (uint32_t i = 0; i < server_.shards(); ++i) {
    const std::string sub = prefix + "shard" + std::to_string(i) + ".";
    registry->RegisterGauge(sub + "translates", [this, i] {
      return static_cast<double>(server_.shard_translates(i));
    });
    registry->RegisterGauge(sub + "memo_hits", [this, i] {
      return static_cast<double>(server_.shard_memo_hits(i));
    });
    registry->RegisterGauge(sub + "memo_entries", [this, i] {
      return static_cast<double>(server_.shard_memo_entries(i));
    });
    // Host-ns service time per translation request (p50/p95/p99 in the
    // JSON export; histograms never join snapshot determinism checks).
    registry->RegisterHistogram(sub + "service_ns",
                                &server_.shard_service_ns(i));
  }
  // Per-session counters: mc.s<id>.*.
  for (const auto& [id, sess] : sessions_) {
    const std::string sub = prefix + "s" + std::to_string(id) + ".";
    const McSessionStats& ss = sess->stats();
    registry->RegisterCounter(sub + "requests", &ss.requests);
    registry->RegisterCounter(sub + "replays_suppressed",
                              &ss.replays_suppressed);
    registry->RegisterCounter(sub + "batches_served", &ss.batches_served);
    registry->RegisterCounter(sub + "chunks_prefetched",
                              &ss.chunks_prefetched);
    registry->RegisterCounter(sub + "restarts", &ss.restarts);
    registry->RegisterCounter(sub + "stale_epoch_rejects",
                              &ss.stale_epoch_rejects);
    registry->RegisterCounter(sub + "write_flushes", &ss.write_flushes);
    registry->RegisterCounter(sub + "text_cow_faults", &ss.text_cow_faults);
    registry->RegisterCounter(sub + "data_cow_page_faults",
                              &ss.data_cow_page_faults);
    registry->RegisterCounter(sub + "shared_requests", &ss.shared_requests);
    registry->RegisterCounter(sub + "digest_replies", &ss.digest_replies);
  }
}

}  // namespace sc::softcache
