// Superblock threaded-code execution engine.
//
// The interpreter (machine.cpp) pays a fetch -> decode-cache probe -> switch
// dispatch for every retired instruction. This engine translates straight-line
// runs of decoded instructions into *superblocks* — arrays of pre-decoded ops
// ending at a control transfer (branch/jump/JALR/SYS/HALT/TCMISS/TCJALR) or at
// kSbMaxOps — and executes them with a direct-threaded inner loop (computed
// goto on GCC/Clang): no per-instruction fetch, no decode-cache probe, no
// top-level switch. Superblocks chain: a block whose branch target is already
// translated jumps straight into the successor's threaded body without going
// back through the dispatch loop.
//
// Semantics contract (proven by tests/engine_test.cpp differential runs):
// guest output, exit code, instruction count, cycle total, fault messages,
// FetchObserver stream, TrapHandler/DataHook call sequence and SetExecRange
// enforcement are bit-identical to the interpreter. Invalidation rides the
// existing InvalidateDecode plumbing, so self-modifying code behaves exactly
// as under the interpreter:
//   - a host WriteWord that turns one terminator into another (the cache
//     controller retargeting a branch, a jump or a miss stub) rewrites that
//     op in place when the word ends every live block covering it
//     (SuperblockCache::Retarget); the blocks stay live and lose only their
//     chain slots;
//   - every other write kills the overlapping superblocks: WriteBlock
//     (installs, recovery replay, COW text writes), InvalidateCode
//     (evictions), a WriteWord that Retarget declines, and every guest
//     store or SYS_READ into translated text.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/isa.h"
#include "util/rng.h"
#include "util/zero_pages.h"

namespace sc::vm {

// Which execution engine Machine::Run uses. New machines run threaded;
// the interpreter is the reference the threaded engine is checked against,
// and it runs every run with a fetch observer.
enum class Engine : uint8_t { kInterp = 0, kThreaded };

// One threaded handler per (opcode, ALU funct) pair, so the inner loop never
// switches on a secondary field.
enum SbKind : uint8_t {
  // kAlu, split by funct.
  kSbAdd, kSbSub, kSbAnd, kSbOr, kSbXor, kSbSll, kSbSrl, kSbSra, kSbSlt,
  kSbSltu, kSbMul, kSbDiv, kSbDivu, kSbRem, kSbRemu,
  // Immediate forms.
  kSbAddi, kSbAndi, kSbOri, kSbXori, kSbSlti, kSbSltiu, kSbSlli, kSbSrli,
  kSbSrai, kSbLui,
  // Loads / stores.
  kSbLw, kSbLh, kSbLhu, kSbLb, kSbLbu, kSbSw, kSbSh, kSbSb,
  // Terminators: every superblock ends with exactly one of these.
  kSbBeq, kSbBne, kSbBlt, kSbBge, kSbBltu, kSbBgeu,
  kSbJ, kSbJal, kSbJalr, kSbSys, kSbHalt, kSbTcMiss, kSbTcJalr, kSbIllegal,
  // Synthetic terminator for blocks cut at kSbMaxOps or at the edge of the
  // fetchable range: continues at start + span through the dispatch loop.
  kSbFallthrough,
  // Synthetic terminator of a budget tail (SuperblockCache::BudgetTail):
  // publishes the counters and stops on the instruction budget.
  kSbStop,
  kSbKindCount,
};

// A real terminator (kSbBeq..kSbIllegal), as TranslateSuperblock maps the
// control-transfer, trap and illegal opcodes; the synthetic kinds are not.
inline bool SbIsTerminator(uint8_t kind) {
  return kind >= kSbBeq && kind <= kSbIllegal;
}

// A pre-decoded instruction in threaded form. `handler` is the computed-goto
// label for `kind` (null in the portable switch fallback). `imm` holds the
// sign-extended immediate, except for direct branches/jumps where it is the
// precomputed *absolute* target address and for kSbIllegal where it is the
// raw undecodable word (for the fault message). An op's pc is not stored: op
// i of a block sits at start + 4 * i (the synthetic terminators included).
struct SbOp {
  const void* handler = nullptr;
  uint32_t cyc_before = 0;  // cycles charged by the block's earlier ops
  int32_t imm = 0;
  uint32_t cost = 0;  // cycle charge, from the CostModel at translation time
  uint8_t kind = 0;
  uint8_t rd = 0;   // ALU/immediate/load/JALR writes to x0 go to a sink slot
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
};
static_assert(sizeof(SbOp) == 24, "SbOp is the threaded loop's stride");

// Superblock length cap. Basic blocks in the bundled workloads average well
// under this; the cap bounds per-block storage and the per-word reach (a
// write can only hit blocks starting in the kSbMaxOps words up to it).
inline constexpr uint32_t kSbMaxOps = 32;
// Slab bound: translating past this many blocks since the last flush (live
// plus invalidated-but-not-yet-reclaimed) flushes the whole cache. It bounds
// the reservation (about 192 KiB of headers and 3.1 MiB of op arena, both
// lazy zero pages, so a machine pays only for the ops it fills) and the
// cost of one flush, not the working set: a tcache smaller than the hot set
// retranslates without end and reaches it again and again (adpcm_enc with a
// 1 KB tcache: 42 capacity flushes in 172,494 fills).
inline constexpr uint32_t kSbMaxBlocks = 4096;

// All-zero bytes are a value-initialized Superblock (pinned by a test): the
// slab hands out fresh zero pages without constructing them. The header does
// not hold its ops: they sit packed in the cache's op arena, `n_ops` of them
// from `ops`.
struct Superblock {
  uint32_t start = 0;   // first fetch address covered
  uint32_t span = 0;    // bytes of guest text covered (real ops only)
  uint32_t n_ops = 0;   // including the terminator
  bool valid = false;
  // Chain slots, filled lazily by the dispatch loop: the successor block for
  // the terminator's taken edge (branch taken / J / JAL) and fallthrough
  // edge (branch not taken / kSbFallthrough). A slot is followed only while
  // its target's `valid` holds, so invalidation severs chains implicitly.
  Superblock* taken = nullptr;
  Superblock* fall = nullptr;
  // Integrity stamp over the semantic op fields (SbDigest), computed at
  // translation time when Machine::set_sb_integrity is on; 0 otherwise.
  // The scrub walk (ScrubCorrupt) invalidates any block whose recomputed
  // digest mismatches, so a bit flip in the decoded form never executes.
  uint64_t digest = 0;
  // The block's ops in the arena: at most kSbMaxOps real ones plus the
  // synthetic fallthrough terminator. Stable until Reclaim rewinds the arena.
  SbOp* ops = nullptr;
};

// FNV-1a over the block's semantic content: start/span/n_ops plus every
// op's cyc_before, imm, cost, kind and register fields. Handler pointers and
// chain slots are deliberately excluded (host addresses; chains mutate
// benignly).
uint64_t SbDigest(const Superblock& sb);

// Counters surfaced as vm.sb.* metrics and asserted by bench_superblock.
struct SbStats {
  uint64_t fills = 0;          // superblocks translated
  uint64_t fill_ops = 0;       // ops pre-decoded into superblocks
  uint64_t chains = 0;         // chain links installed
  uint64_t invalidations = 0;  // superblocks killed by overlapping writes
  uint64_t retargets = 0;      // terminators rewritten in place (Retarget)
  uint64_t flushes = 0;        // whole-cache flushes (capacity, exec range)
};

// The translated-block store. Four arrays, each sized once on lazy zero
// pages (util::ZeroPageAllocator), so a machine pays RSS only for the pages
// its translated text touches:
//   - slab_: kSbMaxBlocks + 1 block headers handed out by a fill cursor, so
//     block addresses stay stable until Reclaim rewinds it (the +1 is the
//     block translated right after a capacity flush, before its reclaim);
//   - ops_: the op arena. A fill writes its ops at the arena's bump cursor
//     and Publish advances the cursor by n_ops, so blocks are packed with no
//     per-block slack and no two blocks share op storage. It reserves the
//     worst case, (kSbMaxBlocks + 1) * (kSbMaxOps + 1) ops, so it never runs
//     out before the slab does; Reclaim rewinds it with the slab;
//   - by_start_: one Superblock* per guest word, the block starting there
//     (a direct-mapped start-pc index);
//   - words_: two bytes per guest word. `cover` counts the live blocks
//     covering it (at most kSbMaxOps): a write whose words all read zero
//     kills nothing, so Invalidate returns after one load per word written.
//     `reach` bounds how far back the start of a live block covering it can
//     lie: Publish raises it to the word's offset in the new block, and it
//     drops to 0 with the word's coverage. Invalidate, FindCovering and
//     Retarget scan by_start_ from w - reach, not w - (kSbMaxOps - 1).
// Invalidation only *marks* blocks dead (chains and the currently executing
// block may still hold pointers into the slab and the arena); reclamation
// is deferred to the dispatch loop's next top-of-loop, when no block is
// executing.
class SuperblockCache {
 public:
  // Covers guest addresses [0, mem_bytes).
  explicit SuperblockCache(uint32_t mem_bytes);
  // Blocks point into the arrays and the tail into its own scratch ops.
  SuperblockCache(const SuperblockCache&) = delete;
  SuperblockCache& operator=(const SuperblockCache&) = delete;

  // `pc` must be a word-aligned guest address.
  Superblock* Find(uint32_t pc) {
    Superblock* sb = by_start_[pc >> 2];
    return sb != nullptr && sb->valid ? sb : nullptr;
  }

  // A live block covering the word at `pc` without starting there, or null:
  // the one starting nearest below `pc`. Only the reach(pc) words before
  // `pc` can hold its start, as in Invalidate.
  Superblock* FindCovering(uint32_t pc) const {
    const uint32_t w = pc >> 2;
    const uint32_t lo = w - words_[w].reach;
    for (uint32_t s = w; s-- > lo;) {
      Superblock* sb = by_start_[s];
      if (sb != nullptr && sb->valid && sb->start + sb->span > pc) return sb;
    }
    return nullptr;
  }

  // Takes the next slab block, header reset, with its ops at the arena's
  // cursor (the caller fills at most kSbMaxOps + 1 of them and then calls
  // Publish, which claims n_ops). The caller flushes before the slab runs
  // out: at most one block follows pool_size() reaching kSbMaxBlocks before
  // Reclaim.
  Superblock* NewBlock() {
    Superblock* sb = &slab_[fill_++];
    sb->valid = false;
    sb->taken = nullptr;
    sb->fall = nullptr;
    sb->digest = 0;
    sb->ops = &ops_[ops_fill_];
    return sb;
  }
  // Makes `sb`, the block NewBlock returned last, live. No live block may
  // start at sb->start.
  void Publish(Superblock* sb) {
    ops_fill_ += sb->n_ops;
    sb->valid = true;
    by_start_[sb->start >> 2] = sb;
    Cover(*sb);
    ++live_;
    if (sb->start < lo_) lo_ = sb->start;
    if (sb->start + sb->span > hi_) hi_ = sb->start + sb->span;
  }

  // Kills every block overlapping [addr, addr+len). Returns true when
  // anything died (the dispatch loop must then leave the current block).
  bool Invalidate(uint32_t addr, uint32_t len, SbStats* stats);

  // A host rewrite of the word at `addr` (word-aligned) to the word `op`
  // was filled from. It happens in place when `op` is a real terminator and
  // so is the last op of every live block covering the word: each such op
  // becomes `op` with its own cyc_before, the block's chain slots are
  // cleared (the taken edge may now lead elsewhere), with `restamp` its
  // digest is recomputed, and each counts as a retarget. The blocks stay
  // live; one running now may run the new op, which is what the
  // interpreter would fetch. Returns false and changes nothing when no
  // block covers the word, a covering block continues past it, either op
  // is not a real terminator, `op` is a miss stub and a covering block
  // starts at the word (no live block starts with one: the dispatch loop
  // traps on a stub no block covers), or (with `restamp`) a covering block
  // no longer matches its digest, so corrupted ops are never re-stamped;
  // the caller then Invalidates.
  bool Retarget(uint32_t addr, const SbOp& op, bool restamp, SbStats* stats);

  // Integrity scrub: recomputes SbDigest over every live block and kills
  // mismatches (counted as invalidations). Returns the number killed;
  // `words_scanned` (may be null) accumulates ops walked. Only meaningful
  // when blocks were stamped (Machine::set_sb_integrity).
  uint32_t ScrubCorrupt(SbStats* stats, uint64_t* words_scanned);

  // Fault injection: flips one random bit in a uniformly chosen live
  // block's decoded immediate. Returns false when no block is live (the
  // interpreter engine, or an empty cache). Draws come only from `rng`, so
  // the caller's other fault streams are never perturbed.
  bool CorruptBit(util::Rng& rng);

  // Marks every block dead and schedules slab reclamation. Never frees
  // storage itself — see class comment.
  void FlushMark(SbStats* stats);

  bool reclaim_pending() const { return reclaim_pending_; }
  // Rewinds the slab and the op arena. Also drops the block published after
  // a capacity FlushMark, which is still live here.
  void Reclaim();

  size_t pool_size() const { return fill_; }
  // Arena ops claimed by the blocks published since the last Reclaim.
  size_t arena_ops() const { return ops_fill_; }
  size_t live_blocks() const { return live_; }
  // Live blocks covering the word at `addr` (tests check the count drains).
  uint32_t coverage(uint32_t addr) const { return words_[addr >> 2].cover; }
  // The scan bound of the word at `addr` (see the class comment).
  uint32_t reach(uint32_t addr) const { return words_[addr >> 2].reach; }

  // The threaded loop's handler table, indexed by SbKind; all null until
  // CaptureHandlers and in the switch fallback. Op fills outside the loop
  // (Retarget's op) read it.
  const void* const* handlers() const { return handlers_; }
  // Copies `handlers` (kSbKindCount label addresses, fixed for the life of
  // the program) on the first call.
  void CaptureHandlers(const void* const* handlers) {
    if (handlers_[0] != nullptr) return;
    std::copy(handlers, handlers + kSbKindCount, handlers_);
  }

  // Visits every live superblock in slab (translation) order, exposing the
  // chain graph: fn(block, taken successor, fall successor) with dead
  // successors passed as null (a chain slot is only followed while its
  // target's `valid` holds, so the view matches what dispatch would do).
  // Inspector surface; the slab is stable while no guest runs.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (uint32_t i = 0; i < fill_; ++i) {
      const Superblock& sb = slab_[i];
      if (!sb.valid) continue;
      const Superblock* taken =
          sb.taken != nullptr && sb.taken->valid ? sb.taken : nullptr;
      const Superblock* fall =
          sb.fall != nullptr && sb.fall->valid ? sb.fall : nullptr;
      fn(sb, taken, fall);
    }
  }
  // Conservative bounds of translated text, for the store fast-path check.
  uint32_t lo() const { return live_ == 0 ? UINT32_MAX : lo_; }
  uint32_t hi() const { return live_ == 0 ? 0 : hi_; }

  // The budget tail of `sb` entered at op `from`: a copy of its ops
  // [from, from + count) (0 < count and from + count < span / 4, so no
  // terminator) followed by a kSbStop op, as a block of its own starting at
  // op `from`'s pc, with cycle prefixes rebased to it. One scratch block with
  // its own ops, rewritten by every call and never published or chained;
  // the dispatch loop runs it when the instruction budget ends inside `sb`.
  Superblock* BudgetTail(const Superblock& sb, uint32_t from, uint32_t count,
                         const void* stop_handler);

 private:
  // Per guest word: live blocks covering it and the scan bound (see the
  // class comment).
  struct WordState {
    uint8_t cover = 0;
    uint8_t reach = 0;
  };
  // Adds `sb` to the coverage of every word it spans, raising their reach.
  void Cover(const Superblock& sb) {
    WordState* w = &words_[sb.start >> 2];
    for (uint32_t i = 0; i < sb.span / 4; ++i) {
      ++w[i].cover;
      if (w[i].reach < i) w[i].reach = static_cast<uint8_t>(i);
    }
  }
  // Removes `sb` from the coverage of every word it spans; a word no live
  // block covers any more gets reach 0.
  void Uncover(const Superblock& sb) {
    WordState* w = &words_[sb.start >> 2];
    for (uint32_t i = 0; i < sb.span / 4; ++i) {
      if (--w[i].cover == 0) w[i].reach = 0;
    }
  }
  // Marks one live block dead (a kill, counted as an invalidation).
  void Kill(Superblock& sb, SbStats* stats);

  template <typename T>
  using ZeroVec = std::vector<T, util::ZeroPageAllocator<T>>;
  ZeroVec<Superblock> slab_;      // stable addresses; rewound only by Reclaim
  ZeroVec<SbOp> ops_;              // op arena; rewound only by Reclaim
  ZeroVec<Superblock*> by_start_;  // word index -> block starting there
  ZeroVec<WordState> words_;       // word index -> coverage and reach
  uint32_t fill_ = 0;              // slab blocks handed out since Reclaim
  uint32_t ops_fill_ = 0;          // arena ops claimed since Reclaim
  size_t live_ = 0;
  uint32_t lo_ = UINT32_MAX;  // min start over live blocks (never shrinks)
  uint32_t hi_ = 0;           // max start+span over live blocks
  bool reclaim_pending_ = false;
  Superblock tail_;  // BudgetTail's scratch block
  SbOp tail_ops_[kSbMaxOps + 1];  // and its ops
  const void* handlers_[kSbKindCount] = {};
};

}  // namespace sc::vm
