// Cache controller: the client side of the softcache.
//
// The CC owns the embedded device's local memory layout:
//
//   [local_base, local_base + tcache_bytes)        the tcache (rewritten code)
//   [cells_base, cells_base + cells_bytes)         "forward cells": permanent
//       one-word jump cells used as (a) landing pads for return addresses
//       fixed up during eviction (SPARC style) and (b) the ARM prototype's
//       per-call-site redirector stubs. A cell holds either `J <tcache addr>`
//       or a TCMISS stub that re-translates its target on demand.
//
// Translated blocks encode cache state in their control transfers:
//   * a branch/call whose target is resident jumps straight to the target's
//     tcache copy — zero tag checks on the hot path;
//   * a branch/call whose target is absent jumps to an exit slot holding a
//     TCMISS stub; firing it fetches the chunk from the MC over the channel,
//     installs and rewrites it, back-patches the branch, and resumes;
//   * computed jumps become TCJALR and resolve through the tcache map (the
//     hash table of Figure 4) at a fixed per-lookup cost.
//
// Block layout in the tcache (SPARC style, basic-block chunks):
//   [ body words (1:1 copy of original instructions) ]
//   [ slot A ]   fallthrough/continuation exit: TCMISS -> later `J fall`
//   [ slot B ]   taken/callee exit: TCMISS (dead after the branch is patched)
// Slot A+B are the paper's "two new instructions per translated basic
// block". Blocks ending in return/halt have no slots.
//
// ARM style translates whole procedures, expanding every call site
//   jal f   ->   lui ra, %hi(cell); ori ra, %lo(cell); j f_or_stub
// so return addresses always point at permanent cells and eviction never
// walks the stack. Computed jumps are unsupported (translation fails), as in
// the paper's prototype.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/channel.h"
#include "obs/metrics.h"
#include "softcache/config.h"
#include "softcache/content_store.h"
#include "softcache/mc.h"
#include "softcache/reliable.h"
#include "softcache/session.h"
#include "softcache/stats.h"
#include "util/open_table.h"
#include "util/stats.h"
#include "vm/machine.h"

namespace sc::softcache {

// How a patch site is rewritten when its target becomes resident.
enum class PatchKind : uint8_t {
  kBranch16,  // rewrite the imm16 of a conditional branch
  kJump26,    // rewrite the imm26 of a J/JAL
  kSlot,      // overwrite the whole word with `J target`
};

class CacheController : public vm::TrapHandler {
 public:
  CacheController(vm::Machine& machine, MemoryController& mc, net::Channel& channel,
                  const SoftCacheConfig& config);

  // Installs the trap handler, restricts execution to local memory, and
  // redirects the machine's PC to the translated entry point.
  void Attach();

  // vm::TrapHandler
  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub_index) override;
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr, uint32_t pc) override;
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override;

  const SoftCacheStats& stats() const { return stats_; }

  // The session's transport (crash-schedule wiring, tests).
  net::Transport& transport() { return session_.transport(); }

  // This client's snoop store on the broadcast medium; null unless
  // config.shared_reply is on. The fleet wiring (MultiClientSystem) feeds it
  // from the switch's reply observer; stats() tracks its traffic under
  // `shared.*`.
  ChunkContentStore* content_store() { return content_store_.get(); }
  // The owner's shared-reply stats block, for the snoop fan-out (which runs
  // outside this class but accounts to the store's owner).
  SharedReplyStats* shared_stats() { return &stats_.shared; }
  // End-of-run barrier: make sure every journaled text write survived any
  // crash nobody RPC'd after (no-op when the journal is empty). Returns
  // false with a fault raised on unrecoverable failure.
  bool SyncSession();

  // --- Integrity fault domain (config.integrity; see integrity.h) ---
  // One integrity tick: evaluates the per-domain fault injectors and, every
  // scrub_every-th tick, runs the background scrub over every client-side
  // cached artifact (tcache blocks, staged chunks, content-store bodies,
  // decoded superblocks). The fleet scheduler calls this once per integrity
  // quantum (integrity.quantum_instructions retired), inside the client's
  // trace lane, so the tick stream is a pure function of this client's
  // instruction count — identical across engines and thread counts.
  // Returns true when this tick ran a scrub pass (the system layer then
  // scrubs the server memo too). No-op returning false when integrity is
  // off.
  bool IntegrityTick();
  bool integrity_enabled() const { return config_.integrity.enabled; }
  // Fires after a corrupted tcache block is quarantined (evicted), with the
  // chunk's original address — srun hooks a post-quarantine Inspector
  // snapshot here. Called before the heal refetch, so the snapshot shows
  // the degraded cache.
  void set_quarantine_hook(std::function<void(uint32_t orig_addr)> hook) {
    quarantine_hook_ = std::move(hook);
  }
  // Test hook: the address of a byte inside some resident tcache block that
  // does NOT contain the machine's current pc (0 when nothing qualifies).
  // Lets integrity tests plant a corruption without knowing the layout.
  uint32_t AnyResidentTcacheByteForTest() const;

  // --- Derived observability series (exported via MultiClientSystem::
  // RegisterClientMetrics; all observation-only — never charges guest
  // cycles) ---
  // Client-visible cycles per successfully handled TCMISS, bucketed.
  const util::Histogram& miss_latency() const { return miss_latency_; }
  // (cycle, live tcache bytes) after every install/evict/flush.
  const obs::Series& occupancy_series() const { return occupancy_; }
  // Per-chunk demand-fetch counts (chunk heat as seen by this client),
  // keyed by original chunk address.
  std::vector<std::pair<uint64_t, uint64_t>> ChunkFetchCounts() const;

  // Binds everything this client keeps — the stats block plus the derived
  // histogram/series/table shapes — into `registry` under `prefix` ("" for
  // the single-client system, "c3." for client 3 of a fleet). Views only:
  // the registry must not outlive this controller.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const {
    stats_.RegisterMetrics(registry, prefix);
    registry->RegisterHistogram(prefix + "cc.miss_latency_cycles",
                                &miss_latency_);
    registry->RegisterSeries(prefix + "cc.tcache_occupancy_bytes",
                             &occupancy_);
    registry->RegisterTable(prefix + "cc.chunk_fetches",
                            [this] { return ChunkFetchCounts(); });
  }

  // --- Pinning (the paper's "novel capability": flexible data/code pinning
  // at arbitrary boundaries without dedicating a memory region) ---
  // Pins the translated block for `orig_addr` (translating it if absent):
  // the eviction policies skip it, so it behaves like fixed local memory
  // (interrupt handlers, hot ISRs). Returns false (with a fault raised) if
  // translation fails. FlushAll preserves pinned blocks too.
  bool Pin(uint32_t orig_addr);
  // Unpins; the block becomes an ordinary eviction candidate again.
  void Unpin(uint32_t orig_addr);
  uint64_t pinned_bytes() const;

  // --- Introspection (tests and benchmarks) ---
  bool IsResident(uint32_t orig_addr) const;
  size_t ResidentBlocks() const { return blocks_.size(); }
  uint32_t local_base() const { return local_base_; }
  uint32_t cells_base() const { return cells_base_; }
  uint32_t local_limit() const { return cells_base_ + cells_bytes_; }
  uint64_t live_tcache_bytes() const { return live_bytes_; }

  // Validates every cross-structure invariant (edges consistent both ways,
  // stubs point at live TCMISS words, map entries match blocks, no block
  // overlap). Fatal on violation; called from tests after every phase.
  void CheckInvariants() const;

  // Human-readable dump of the whole rewriting state: every resident block
  // (address ranges, exit states, edges), live stubs, and forward cells.
  // Debugging surface for srun --dump-tcache and failing tests.
  std::string DumpState() const;

  // Machine-readable tcache occupancy row, one per resident block, for the
  // Inspector (docs/OBSERVABILITY.md). Ordered by tcache address.
  struct BlockView {
    uint32_t orig_addr = 0;
    uint32_t orig_span = 0;
    uint32_t tc_addr = 0;
    uint32_t tc_bytes = 0;
    uint32_t out_edges = 0;
    uint32_t in_edges = 0;
    bool pinned = false;
  };
  std::vector<BlockView> SnapshotBlocks() const;
  // (orig_addr, staged wire cost) per staged prefetch chunk, FIFO order.
  std::vector<std::pair<uint32_t, uint32_t>> SnapshotStaged() const;
  uint64_t staged_bytes() const { return staged_bytes_; }
  const vm::Machine& machine() const { return machine_; }

 private:
  struct InEdge {
    uint64_t from_block;   // source block id; 0 for permanent cells
    uint32_t patch_addr;   // the word that currently points at the target
    PatchKind kind;
    uint32_t miss_slot;    // where the TCMISS goes on unlink
    uint32_t target_orig;  // original target address (stub recreation)
  };

  struct Block {
    uint64_t id = 0;
    uint32_t orig_addr = 0;
    uint32_t orig_span = 0;  // bytes of original code this block covers
    uint32_t tc_addr = 0;
    uint32_t tc_bytes = 0;
    uint32_t body_words = 0;
    uint32_t slot_words = 0;
    ExitKind exit = ExitKind::kNone;
    bool pinned = false;  // exempt from eviction (Pin/Unpin)
    // Integrity stamp over the installed tcache words (0 with integrity
    // off); refreshed after every legitimate patch write. `poisoned` marks
    // a block installed under the degradation ladder (its tcache range is
    // poisoned on the machine; eviction unpoisons).
    uint64_t digest = 0;
    bool poisoned = false;
    uint32_t taken_orig = 0;
    uint32_t fall_orig = 0;
    uint32_t slot_a = 0;  // 0 = absent
    uint32_t slot_b = 0;
    // Trace chunking: mid-chunk side exits as (slot address, taken target).
    std::vector<std::pair<uint32_t, uint32_t>> mid_slots;
    // ARM mode: original word index -> tcache word index. Empty in SPARC
    // mode (identity mapping).
    std::vector<uint32_t> index_map;
    std::vector<InEdge> in_edges;
    // (target block id, patch_addr) for every linked outgoing edge.
    std::vector<std::pair<uint64_t, uint32_t>> out_edges;
    // (stub id, generation) for stubs whose TCMISS words live inside this
    // block. Entries go stale when a stub is freed by back-patching; the
    // generation check at eviction prevents freeing a reused id.
    std::vector<std::pair<uint32_t, uint64_t>> own_stubs;
  };

  struct StubInfo {
    bool live = false;
    uint32_t target_orig = 0;
    uint32_t patch_addr = 0;
    PatchKind kind = PatchKind::kSlot;
    uint32_t miss_slot = 0;
    uint64_t from_block = 0;  // 0 for permanent cells
    // Distinguishes reuses of the same stub id: translation during a miss
    // can evict the trapping block, free its stub, and hand the id to a new
    // stub — the trap handler must notice its snapshot went stale.
    uint64_t generation = 0;
  };

  // --- Translation ---
  struct Resolution {
    uint32_t tc_addr = 0;
    Block* block = nullptr;
    bool translated = false;
  };
  // Resolves an original PC to a tcache PC, translating on miss. Returns a
  // null block on failure (a fault has been raised on the machine).
  Resolution ResolveEntry(uint32_t orig_pc);
  // Finds the resident block for `orig_pc` without translating: an exact
  // block start, or (ARM style) a procedure containing the interior address.
  // Returns nullptr when absent; on success, a non-null `tc_addr` receives
  // the translated address of orig_pc.
  Block* FindResident(uint32_t orig_pc, uint32_t* tc_addr = nullptr);
  Block* Translate(uint32_t orig_pc);
  // Decodes every chunk word once into install_decoded_.
  void DecodeChunk(const Chunk& chunk);
  // Both installs stage the whole block and write it with one WriteBlock.
  Block* InstallSparc(const Chunk& chunk);
  Block* InstallArm(const Chunk& chunk);
  util::Result<Chunk> FetchChunk(uint32_t orig_pc);
  // Second round trip after a digest reply whose body the snoop store no
  // longer holds: a plain kChunkRequest, always answered with a full body.
  util::Result<Chunk> FetchChunkFullBody(uint32_t orig_pc);

  // --- Prefetch staging ---
  // Prefetched chunks wait here as raw untranslated words — no tcache space,
  // no translation work — until demanded (TakeStaged) or FIFO-evicted.
  // Cost accounting mirrors the wire cost (sub-header + words).
  static uint32_t StagedCost(const Chunk& chunk);
  void StageChunk(Chunk&& chunk);
  // Moves the staged chunk covering `orig_pc` into `*out` (exact start, or —
  // ARM style — a procedure containing the interior address). False on miss.
  bool TakeStaged(uint32_t orig_pc, Chunk* out);
  // Drops staged chunks overlapping [addr, addr+len): their words are stale
  // once the program rewrites that text.
  void DropStagedRange(uint32_t addr, uint32_t len);
  void UnstageAt(uint32_t orig_addr);
  // Session quiesce hook: drops every staged prefetch chunk. Staged chunks
  // encode pre-crash MC decisions; after a restart the conservative move is
  // to refetch on demand.
  void QuiesceForRecovery();
  // Charges client-visible miss-handling cycles.
  void Charge(uint64_t cycles) {
    machine_.Charge(cycles);
    stats_.miss_cycles += cycles;
  }

  // --- Allocation / eviction ---
  // Returns 0 on failure (fault raised).
  uint32_t Allocate(uint32_t bytes);
  void EvictBlock(uint64_t block_id);
  void FlushAll();

  // --- Linking ---
  uint32_t NewStub(const StubInfo& info);
  void FreeStub(uint32_t stub_id);
  void WriteStubWord(uint32_t addr, uint32_t stub_id);
  // Points patch_addr (of the given kind) at `target_tc` and registers the
  // in-edge on `target`.
  void LinkEdge(const StubInfo& stub, Block& target, uint32_t target_tc);
  // Restores one in-edge of an evicted block to its missing state.
  void UnlinkEdge(const InEdge& edge);
  // Returns the permanent forward cell for `cont_orig`, creating it if
  // needed. If `known_tc` is nonzero the cell is set to `J known_tc` and an
  // in-edge is registered on `owner`; otherwise the cell holds a TCMISS.
  uint32_t ForwardCell(uint32_t cont_orig, uint32_t known_tc, Block* owner);

  // --- Invalidation support ---
  // Maps a tcache address inside `block` back to its original address.
  uint32_t OrigForTcacheAddr(const Block& block, uint32_t tc_addr) const;
  // Replaces return addresses pointing into the evicted block — in the ra
  // register and in every stack frame — with forward-cell addresses (SPARC
  // style; the ARM style routes returns through cells up front).
  void FixStaleReturnAddresses(const Block& block);

  Block* BlockById(uint64_t id);
  void Fail(const std::string& what);

  // --- Integrity internals ---
  // FNV-1a over the block's current tcache bytes (ChunkDigest keyed by the
  // original address, so two blocks with equal bytes still differ).
  uint64_t BlockDigest(const Block& block) const;
  // A legitimate patch wrote `addr`: restamp the containing block, if any.
  void RefreshDigestAt(uint32_t addr);
  // Verify-on-use: true when the block's bytes match its stamp. On
  // mismatch the block is quarantined (possibly raising the heal-budget
  // fault) and false is returned — the caller refetches via the miss path.
  bool VerifyResident(Block* block);
  // Evicts a corrupted block, records the heal debt, and advances the
  // degradation ladder. Returns false when the heal budget is exhausted
  // (a fault has been raised).
  bool Quarantine(Block* block);
  // The background scrub pass: walk every domain, quarantine/drop
  // mismatches, charge the walk.
  void ScrubCachedState();
  uint64_t StagedDigest(const Chunk& chunk) const;

  // Per-domain injectors (null with integrity off).
  std::unique_ptr<MemFaultInjector> inj_tcache_;
  std::unique_ptr<MemFaultInjector> inj_staged_;
  std::unique_ptr<MemFaultInjector> inj_store_;
  std::unique_ptr<MemFaultInjector> inj_sb_;
  // Chunks quarantined and awaiting their heal reinstall (keyed by original
  // address), the per-chunk quarantine counts driving the poison ladder,
  // and the chunks demoted to per-instruction dispatch.
  std::set<uint32_t> pending_heal_;
  std::map<uint32_t, uint32_t> heal_counts_;
  std::set<uint32_t> poisoned_origs_;
  // Digest per staged prefetch chunk, keyed like staged_.
  std::map<uint32_t, uint64_t> staged_digest_;
  std::function<void(uint32_t)> quarantine_hook_;
  // Latched when the heal budget is exhausted: the run is degrading to a
  // clean Fail, so no further verification/healing work happens.
  bool integrity_fatal_ = false;

  vm::Machine& machine_;
  MemoryController& mc_;
  SoftCacheConfig config_;
  SoftCacheStats stats_;
  // Declared after stats_: the session records into stats_.net/.session.
  Session session_;
  // Snoop store for content-addressed shared replies (null when off).
  std::unique_ptr<ChunkContentStore> content_store_;
  // Observability series (see accessors above).
  util::Histogram miss_latency_;
  obs::Series occupancy_;
  util::OpenTable<uint32_t, uint32_t> fetch_counts_;

  uint32_t local_base_ = 0;
  uint32_t cells_base_ = 0;
  uint32_t cells_bytes_ = 0;
  uint32_t cells_used_ = 0;

  uint64_t next_block_id_ = 1;
  uint32_t alloc_cursor_ = 0;  // offset within the tcache region
  uint64_t live_bytes_ = 0;

  std::map<uint32_t, Block> blocks_;  // keyed by tc_addr
  // id -> tc_addr. Hit on every TCMISS resolution and invariant check; an
  // open-addressed flat table sized at construction from the worst-case
  // resident-block count.
  util::OpenTable<uint64_t, uint32_t> block_tc_;
  // Original start -> block id; ordered so the ARM style can find the
  // procedure containing an interior address (and eviction scans stay
  // address-ordered).
  std::map<uint32_t, uint64_t> by_orig_;
  std::vector<StubInfo> stubs_;
  std::vector<uint32_t> free_stub_ids_;
  uint64_t stub_generation_ = 0;
  // Install buffers, reused across misses: the chunk's words decoded once,
  // and the block's words (body, exit and mid slots) staged so one
  // Machine::WriteBlock installs them.
  std::vector<isa::Instr> install_decoded_;
  std::vector<uint32_t> install_words_;
  // orig -> cell addr; sized from the cell region (one word per cell).
  util::OpenTable<uint32_t, uint32_t> cell_for_orig_;
  // Staging buffer for prefetched chunks, keyed by orig_addr (ordered for
  // the ARM interior-address lookup), bounded by config.prefetch.staging_bytes
  // with FIFO displacement.
  std::map<uint32_t, Chunk> staged_;
  std::deque<uint32_t> staged_fifo_;
  uint64_t staged_bytes_ = 0;

  // Causal tracing (see FetchChunk): rolling 4-bit request id and the flow
  // arrow currently open between fetch and install. Touched only while the
  // thread's trace lane is recording.
  uint32_t next_rid_ = 1;
  uint32_t current_rid_ = 0;
  uint64_t pending_flow_id_ = 0;
};

}  // namespace sc::softcache
