// Superblock translation + the direct-threaded execution engine.
//
// Machine::RunThreaded lives here (it is a Machine member so the handlers
// touch regs_/mem_/cycles_ directly, exactly like the interpreter loop).
// See superblock.h for the engine contract; tests/engine_test.cpp proves
// bit-identical behavior against the interpreter on every workload, random
// programs, and self-modifying code.

#include <algorithm>
#include <cstring>

#include "obs/trace.h"
#include "util/check.h"
#include "vm/machine.h"

// Computed goto (direct threading) on GCC/Clang; a dense-switch fallback
// keeps the engine portable and gives a second implementation to diff
// against (-DSOFTCACHE_NO_COMPUTED_GOTO).
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SOFTCACHE_NO_COMPUTED_GOTO)
#define SC_SB_COMPUTED_GOTO 1
#else
#define SC_SB_COMPUTED_GOTO 0
#endif

namespace sc::vm {

using isa::AluOp;
using isa::Instr;
using isa::Opcode;

SuperblockCache::SuperblockCache(uint32_t mem_bytes)
    : slab_(kSbMaxBlocks + 1),
      ops_((kSbMaxBlocks + 1) * (kSbMaxOps + 1)),
      by_start_(mem_bytes / 4),
      words_(mem_bytes / 4) {
  tail_.ops = tail_ops_;
}

void SuperblockCache::Kill(Superblock& sb, SbStats* stats) {
  sb.valid = false;
  by_start_[sb.start >> 2] = nullptr;
  Uncover(sb);
  --live_;
  ++stats->invalidations;
}

bool SuperblockCache::Invalidate(uint32_t addr, uint32_t len, SbStats* stats) {
  if (live_ == 0) return false;
  const uint64_t end = static_cast<uint64_t>(addr) + len;
  if (addr >= hi_ || end <= lo_) return false;
  // Full-range hit or a huge write: cheaper to flush than to scan.
  if (addr <= lo_ && end >= hi_) {
    FlushMark(stats);
    return true;
  }
  // Coverage filter: a write kills something only if one of its words is
  // covered by a live block. hi_ is word-aligned and bounds every live block.
  const uint32_t first_word = addr >> 2;
  const uint32_t end_word =
      static_cast<uint32_t>((std::min<uint64_t>(end, hi_) + 3) >> 2);
  uint32_t w = first_word;
  while (w < end_word && words_[w].cover == 0) ++w;
  if (w == end_word) return false;
  // A block overlaps [addr, end) iff it covers addr's word, so starts at
  // most reach words before it, or starts inside the write.
  const uint32_t scan_from = first_word - words_[first_word].reach;
  bool any = false;
  for (uint32_t s = scan_from; s < end_word; ++s) {
    Superblock* sb = by_start_[s];
    if (sb == nullptr || !sb->valid || sb->start + sb->span <= addr) continue;
    Kill(*sb, stats);
    any = true;
  }
  if (any) OBS_INSTANT("vm", "sb.invalidate", "addr", addr);
  return any;
}

bool SuperblockCache::Retarget(uint32_t addr, const SbOp& op, bool restamp,
                               SbStats* stats) {
  const uint32_t w = addr >> 2;
  if (!SbIsTerminator(op.kind) || words_[w].cover == 0) return false;
  const uint32_t scan_from = w - words_[w].reach;
  // All or nothing: check every covering block before touching any.
  for (uint32_t s = scan_from; s <= w; ++s) {
    const Superblock* sb = by_start_[s];
    if (sb == nullptr || !sb->valid || sb->start + sb->span <= addr) continue;
    const uint32_t k = w - s;
    if (k + 1 != sb->n_ops || !SbIsTerminator(sb->ops[k].kind)) return false;
    // No live block starts with a miss stub (see the dispatch loop).
    if (k == 0 && op.kind == kSbTcMiss) return false;
    if (restamp && sb->digest != SbDigest(*sb)) return false;
  }
  for (uint32_t s = scan_from; s <= w; ++s) {
    Superblock* sb = by_start_[s];
    if (sb == nullptr || !sb->valid || sb->start + sb->span <= addr) continue;
    SbOp& term = sb->ops[w - s];
    const uint32_t cyc_before = term.cyc_before;
    term = op;
    term.cyc_before = cyc_before;
    sb->taken = nullptr;
    sb->fall = nullptr;
    if (restamp) sb->digest = SbDigest(*sb);
    ++stats->retargets;
  }
  return true;
}

void SuperblockCache::FlushMark(SbStats* stats) {
  for (uint32_t i = 0; i < fill_; ++i) {
    Superblock& sb = slab_[i];
    if (!sb.valid) continue;
    sb.valid = false;
    Uncover(sb);
  }
  live_ = 0;
  lo_ = UINT32_MAX;
  hi_ = 0;
  reclaim_pending_ = true;
  ++stats->flushes;
  OBS_INSTANT("vm", "sb.invalidate", "addr", 0);
}

void SuperblockCache::Reclaim() {
  for (uint32_t i = 0; i < fill_; ++i) {
    Superblock& sb = slab_[i];
    if (by_start_[sb.start >> 2] == &sb) by_start_[sb.start >> 2] = nullptr;
    if (sb.valid) {
      sb.valid = false;
      Uncover(sb);
    }
  }
  fill_ = 0;
  ops_fill_ = 0;
  live_ = 0;
  lo_ = UINT32_MAX;
  hi_ = 0;
  reclaim_pending_ = false;
}

uint64_t SbDigest(const Superblock& sb) {
  // FNV-1a 64, matching the constants of softcache's ChunkDigest; only
  // semantic fields are mixed (see the declaration comment).
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(sb.start);
  mix(sb.span);
  mix(sb.n_ops);
  for (uint32_t i = 0; i < sb.n_ops; ++i) {
    const SbOp& op = sb.ops[i];
    mix(op.cyc_before);
    mix(static_cast<uint32_t>(op.imm));
    mix(op.cost);
    mix((static_cast<uint64_t>(op.kind) << 24) |
        (static_cast<uint64_t>(op.rd) << 16) |
        (static_cast<uint64_t>(op.rs1) << 8) | op.rs2);
  }
  return h;
}

uint32_t SuperblockCache::ScrubCorrupt(SbStats* stats,
                                       uint64_t* words_scanned) {
  uint32_t corrupt = 0;
  for (uint32_t i = 0; i < fill_; ++i) {
    Superblock& sb = slab_[i];
    if (!sb.valid) continue;
    if (words_scanned != nullptr) *words_scanned += sb.n_ops;
    if (sb.digest == SbDigest(sb)) continue;
    Kill(sb, stats);
    ++corrupt;
  }
  if (corrupt > 0) OBS_INSTANT("vm", "sb.scrub_kill", "blocks", corrupt);
  return corrupt;
}

Superblock* SuperblockCache::BudgetTail(const Superblock& sb, uint32_t from,
                                        uint32_t count,
                                        const void* stop_handler) {
  const uint32_t base = sb.ops[from].cyc_before;
  tail_.start = sb.start + 4 * from;
  tail_.span = 4 * count;
  tail_.n_ops = count + 1;
  for (uint32_t i = 0; i < count; ++i) {
    tail_ops_[i] = sb.ops[from + i];
    tail_ops_[i].cyc_before -= base;
  }
  SbOp& stop = tail_ops_[count];
  stop = SbOp{};
  stop.handler = stop_handler;
  stop.cyc_before = sb.ops[from + count].cyc_before - base;
  stop.kind = kSbStop;
  return &tail_;
}

bool SuperblockCache::CorruptBit(util::Rng& rng) {
  if (live_ == 0) return false;
  uint64_t k = rng.Below(live_);
  for (uint32_t i = 0; i < fill_; ++i) {
    Superblock& sb = slab_[i];
    if (!sb.valid) continue;
    if (k > 0) {
      --k;
      continue;
    }
    SbOp& op = sb.ops[rng.Below(sb.n_ops)];
    op.imm ^= static_cast<int32_t>(1u << rng.Below(32));
    return true;
  }
  return false;  // unreachable while live_ is consistent
}

void Machine::set_sb_integrity(bool on) {
  if (sb_integrity_ == on) return;
  sb_integrity_ = on;
  // Pre-existing blocks carry no stamp (or a stale toggle's stamps);
  // rebuild everything under the new policy.
  FlushSuperblocks();
}

uint32_t Machine::ScrubSuperblocks(uint64_t* words_scanned) {
  if (!sb_integrity_ || sb_cache_ == nullptr) return 0;
  const uint32_t killed = sb_cache_->ScrubCorrupt(&sb_stats_, words_scanned);
  if (killed > 0) SyncSuperblockBounds();
  return killed;
}

bool Machine::CorruptSuperblockBit(util::Rng& rng) {
  if (sb_cache_ == nullptr) return false;
  return sb_cache_->CorruptBit(rng);
}

void Machine::PoisonCodeRange(uint32_t addr, uint32_t len) {
  if (len == 0) return;
  poison_.emplace_back(addr, addr + len);
  // Existing multi-op blocks over the range must be re-formed under the cut.
  if (sb_cache_ != nullptr &&
      sb_cache_->Invalidate(addr, len, &sb_stats_)) {
    sb_interrupt_ = true;
    SyncSuperblockBounds();
  }
  OBS_INSTANT("vm", "sb.poison", "addr", addr);
}

void Machine::UnpoisonCodeRange(uint32_t addr, uint32_t len) {
  const uint64_t end = static_cast<uint64_t>(addr) + len;
  for (size_t i = 0; i < poison_.size();) {
    if (poison_[i].first >= addr && poison_[i].second <= end) {
      poison_[i] = poison_.back();
      poison_.pop_back();
    } else {
      ++i;
    }
  }
  // 1-op blocks formed under the cut stay valid — they are semantically
  // correct, just conservative — and the caller (eviction) invalidates the
  // range anyway before new code lands there.
}

void Machine::FillOp(const Instr& in, uint32_t word, uint32_t pc,
                     const void* const* handlers, SbOp* op) const {
  // Arena ops are reused after Reclaim: every field but cyc_before is
  // rewritten here (HALT, TCMISS and illegal ops charge no cost).
  op->rd = in.rd;
  op->rs1 = in.rs1;
  op->rs2 = in.rs2;
  op->imm = in.imm;
  op->cost = 0;
  switch (in.op) {
    case Opcode::kAlu:
      // SbKind mirrors AluOp order (kSbAdd..kSbRemu).
      op->kind = static_cast<uint8_t>(kSbAdd + static_cast<int>(in.funct));
      op->cost = in.funct == AluOp::kMul ? cost_.mul
                 : (in.funct == AluOp::kDiv || in.funct == AluOp::kDivu ||
                    in.funct == AluOp::kRem || in.funct == AluOp::kRemu)
                     ? cost_.div
                     : cost_.alu;
      if (op->rd == 0) op->rd = kSinkReg;
      break;
    case Opcode::kAddi:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kSlti:
    case Opcode::kSltiu:
    case Opcode::kSlli:
    case Opcode::kSrli:
    case Opcode::kSrai:
    case Opcode::kLui:
      // SbKind mirrors the opcode order kAddi..kLui.
      op->kind = static_cast<uint8_t>(
          kSbAddi + (static_cast<int>(in.op) - static_cast<int>(Opcode::kAddi)));
      op->cost = cost_.alu;
      if (op->rd == 0) op->rd = kSinkReg;
      break;
    case Opcode::kLw:
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kLb:
    case Opcode::kLbu:
      op->kind = static_cast<uint8_t>(
          kSbLw + (static_cast<int>(in.op) - static_cast<int>(Opcode::kLw)));
      op->cost = cost_.load;
      if (op->rd == 0) op->rd = kSinkReg;
      break;
    case Opcode::kSw:
    case Opcode::kSh:
    case Opcode::kSb:
      op->kind = static_cast<uint8_t>(
          kSbSw + (static_cast<int>(in.op) - static_cast<int>(Opcode::kSw)));
      op->cost = cost_.store;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
      op->kind = static_cast<uint8_t>(
          kSbBeq + (static_cast<int>(in.op) - static_cast<int>(Opcode::kBeq)));
      op->cost = cost_.branch;
      op->imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
      break;
    case Opcode::kJ:
      op->kind = kSbJ;
      op->cost = cost_.jump;
      op->imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
      break;
    case Opcode::kJal:
      op->kind = kSbJal;
      op->cost = cost_.jump;
      op->imm = static_cast<int32_t>(isa::BranchTarget(pc, in.imm));
      break;
    case Opcode::kJalr:
      op->kind = kSbJalr;
      op->cost = cost_.jump;
      if (op->rd == 0) op->rd = kSinkReg;
      break;
    case Opcode::kSys:
      op->kind = kSbSys;
      op->cost = cost_.syscall;
      break;
    case Opcode::kHalt:
      op->kind = kSbHalt;
      break;
    case Opcode::kTcMiss:
      op->kind = kSbTcMiss;
      break;
    case Opcode::kTcJalr:
      op->kind = kSbTcJalr;
      op->cost = cost_.jump;
      break;
    case Opcode::kIllegal:
    default:
      op->kind = kSbIllegal;
      op->imm = static_cast<int32_t>(word);  // raw word for the fault text
      break;
  }
  op->handler = handlers != nullptr ? handlers[op->kind] : nullptr;
}

uint32_t Machine::FormOps(uint32_t start, bool use_handoff, SbOp* ops,
                          uint32_t* span) const {
  const void* const* handlers =
      sb_cache_ != nullptr ? sb_cache_->handlers() : nullptr;
  uint32_t pc = start;
  uint32_t n = 0;
  uint32_t prefix = 0;  // cycles charged by the ops formed so far
  bool terminated = false;
  while (n < kSbMaxOps) {
    // The caller validated `start`; later pcs re-run the interpreter's fetch
    // checks here so execution never needs them.
    if (pc % 4 != 0 || static_cast<uint64_t>(pc) + 4 > mem_.size() ||
        pc < image::kNullGuardEnd) {
      break;
    }
    if (exec_lo_ != exec_hi_ && (pc < exec_lo_ || pc >= exec_hi_)) break;
    // Degradation-ladder cut: a clean run never extends into a poisoned
    // word (it gets its own block), see the matching post-append cut below.
    if (!poison_.empty() && n > 0 && InPoison(pc)) break;
    uint32_t word = 0;
    std::memcpy(&word, mem_.data() + pc, 4);
    // The word's handoff entry, if any (a pc below handoff_addr_ wraps past
    // the handoff's size).
    const uint32_t h = (pc - handoff_addr_) / 4;
    const bool handed = use_handoff && h < handoff_.size() &&
                        handoff_[h].word == word;
    SbOp& op = ops[n++];
    FillOp(handed ? handoff_[h].instr : isa::Decode(word), word, pc, handlers,
           &op);
    op.cyc_before = prefix;
    prefix += op.cost;
    pc += 4;
    if (SbIsTerminator(op.kind)) {
      terminated = true;
      break;
    }
    // Degradation-ladder cut: a poisoned op ends its block immediately, so
    // blocks over poisoned words carry exactly one real instruction and the
    // threaded engine dispatches them one at a time.
    if (!poison_.empty() && InPoison(pc - 4)) break;
  }
  *span = n * 4;
  if (!terminated) {
    // Cut at kSbMaxOps or at the edge of the fetchable range: a synthetic
    // zero-instruction terminator continues at `pc` (which, if invalid, the
    // dispatch loop faults on with the interpreter's exact message).
    SbOp& op = ops[n++];
    op = SbOp{};
    op.cyc_before = prefix;
    op.kind = kSbFallthrough;
    op.handler = handlers != nullptr ? handlers[kSbFallthrough] : nullptr;
  }
  return n;
}

Superblock* Machine::TranslateSuperblock(uint32_t start,
                                         const void* const* handlers) {
  SuperblockCache& cache = *sb_cache_;
  if (handlers != nullptr) cache.CaptureHandlers(handlers);
  if (cache.pool_size() >= kSbMaxBlocks) {
    // Slab exhausted: mark everything dead; the dispatch loop reclaims the
    // slab at its next top-of-loop.
    cache.FlushMark(&sb_stats_);
    sb_interrupt_ = true;
    SyncSuperblockBounds();
  }
  Superblock* sb = cache.NewBlock();
  sb->start = start;
  sb->n_ops = FormOps(start, /*use_handoff=*/true, sb->ops, &sb->span);
  if (sb_integrity_) sb->digest = SbDigest(*sb);
  cache.Publish(sb);
  SyncSuperblockBounds();
  ++sb_stats_.fills;
  sb_stats_.fill_ops += sb->span / 4;
  OBS_INSTANT("vm", "sb.fill", "pc", start);
  return sb;
}

bool Machine::RetargetSuperblocks(uint32_t addr) {
  if (addr % 4 != 0 || sb_cache_->coverage(addr) == 0) return false;
  uint32_t word = 0;
  std::memcpy(&word, mem_.data() + addr, 4);
  SbOp op;
  FillOp(isa::Decode(word), word, addr, sb_cache_->handlers(), &op);
  return sb_cache_->Retarget(addr, op, sb_integrity_, &sb_stats_);
}

// --- The threaded inner loop ---
//
// A handler does only its semantic work. Everything the interpreter does per
// instruction besides that — fetch-address validation, the memory fetch, the
// decode-cache probe, the opcode switch, next-pc arithmetic — happened once,
// at translation time, and the bookkeeping is paid once per block:
//
//   - Counters. The locals `ret` and `cyc` hold instret_ and cycles_ as they
//     would be at the running block's first op. Op `ord` (op - sb->ops) sits
//     at pc sb->start + 4 * ord, and the interpreter's counters there are
//     ret + ord + 1 and cyc + op->cyc_before, plus op->cost once the op has
//     charged. A block entered at op k (a slice that resumes mid-block, see
//     the dispatch loop) rebases them to ret = instret_ - k and
//     cyc = cycles_ - ops[k].cyc_before, so every handler stays as it is.
//     SB_SYNC publishes them before anything that can observe the
//     members (fault construction, syscalls, trap handlers, the data hook,
//     OBS events whose tracer clock reads cycles_); after the data hook,
//     which may Charge(), `cyc` is rebased on cycles_. A terminator retires
//     the whole block (SB_RETIRE). pc_ is only written where someone can
//     read it: fault paths, call-outs, and block exits.
//   - Budget. Entering a block, from the dispatch loop or from a chain,
//     checks that its instructions from the entry op on fit in what is left
//     of the budget; a block that does not runs as its budget tail
//     (BudgetTail, copied from the entry op), which stops at the
//     interpreter's exact instruction.
//   - Fetch observer. An observed run goes to the interpreter, the
//     reference, at the dispatch loop's top; the handlers never test for it.

#if SC_SB_COMPUTED_GOTO
#define SB_CASE(k) h_##k
#define SB_NEXT()      \
  do {                 \
    ++op;              \
    goto* op->handler; \
  } while (0)
#define SB_DISPATCH() goto* op->handler
#else
#define SB_CASE(k) case k
#define SB_NEXT()  \
  do {             \
    ++op;          \
    goto dispatch; \
  } while (0)
#define SB_DISPATCH() goto dispatch
#endif

// The pc of the current op (cold paths; terminators use start + span).
#define SB_OP_PC() (sb->start + 4 * static_cast<uint32_t>(op - sb->ops))

// Publishes the counters at the current op: retired, and charged `charged`
// of its own cost (0 or op->cost).
#define SB_SYNC(charged)                                      \
  do {                                                        \
    instret_ = ret + static_cast<uint64_t>(op - sb->ops) + 1; \
    cycles_ = cyc + op->cyc_before + (charged);               \
  } while (0)

// Retires the whole block at its terminator (or kSbStop).
#define SB_RETIRE()                   \
  do {                                \
    ret += sb->span / 4;              \
    cyc += op->cyc_before + op->cost; \
  } while (0)

#define SB_FLUSH() \
  do {             \
    instret_ = ret; \
    cycles_ = cyc;  \
  } while (0)

// Leaves a retired block along chain slot `slot`: straight into the
// successor's body when it is live and fits the budget, otherwise through
// the dispatch loop at `next_pc`, which fills the slot.
#define SB_CHAIN(slot, next_pc)                               \
  do {                                                        \
    Superblock* nxt = sb->slot;                               \
    if (nxt != nullptr && nxt->valid) {                       \
      sb = nxt;                                               \
      op = sb->ops;                                           \
      if (budget_end - ret < sb->span / 4) goto budget_tail;  \
      SB_DISPATCH();                                          \
    }                                                         \
    pc_ = (next_pc);                                          \
    chain_slot = &sb->slot;                                   \
    SB_FLUSH();                                               \
    goto outer;                                               \
  } while (0)

// Binary ALU op: `a` and `b` are the operand registers.
#define SB_ALU(kind, expr)             \
  SB_CASE(kind) : {                    \
    const uint32_t a = regs_[op->rs1]; \
    const uint32_t b = regs_[op->rs2]; \
    regs_[op->rd] = (expr);            \
    SB_NEXT();                         \
  }

// Immediate ALU op: `a` is rs1, `imm` the decoded immediate.
#define SB_ALUI(kind, expr)            \
  SB_CASE(kind) : {                    \
    const uint32_t a = regs_[op->rs1]; \
    const int32_t imm = op->imm;       \
    regs_[op->rd] = (expr);            \
    SB_NEXT();                         \
  }

// Conditional branch terminator with block chaining on both edges.
#define SB_BRANCH(kind, cond)                                  \
  SB_CASE(kind) : {                                            \
    const uint32_t a = regs_[op->rs1];                         \
    const uint32_t b = regs_[op->rs2];                         \
    SB_RETIRE();                                               \
    if (cond) SB_CHAIN(taken, static_cast<uint32_t>(op->imm)); \
    SB_CHAIN(fall, sb->start + sb->span);                      \
  }

// A division: faults (uncharged) on a zero divisor.
#define SB_DIVIDE(kind, expr)               \
  SB_CASE(kind) : {                         \
    const uint32_t a = regs_[op->rs1];      \
    const uint32_t b = regs_[op->rs2];      \
    if (b == 0) {                           \
      pc_ = SB_OP_PC();                     \
      SB_SYNC(0);                           \
      return FaultHere("division by zero"); \
    }                                       \
    regs_[op->rd] = (expr);                 \
    SB_NEXT();                              \
  }

// A load. The fast path (no data hook over the address) validates with an
// inline predicate and reads mem_ directly — no out-of-line call, no member
// flush. The hook path mirrors the interpreter's full sequence around
// TranslateData (which may Charge miss cycles and issue RPCs whose crash
// schedules read the cycle counter).
#define SB_LOAD(kind, nbytes, read_stmt)                                 \
  SB_CASE(kind) : {                                                      \
    const uint32_t vaddr = regs_[op->rs1] + static_cast<uint32_t>(op->imm); \
    if (data_hook_ == nullptr || vaddr < data_hook_lo_ ||                \
        vaddr >= data_hook_hi_) {                                        \
      if (!DataAddrOk(vaddr, nbytes, mem_.size())) {                     \
        pc_ = SB_OP_PC();                                                \
        SB_SYNC(0);                                                      \
        CheckDataAddr(vaddr, nbytes);                                    \
        return MakeResult(pending_stop_);                                \
      }                                                                  \
      const uint32_t paddr = vaddr;                                      \
      read_stmt;                                                         \
      SB_NEXT();                                                         \
    }                                                                    \
    pc_ = SB_OP_PC();                                                    \
    SB_SYNC(0);                                                          \
    if (!CheckDataAddr(vaddr, nbytes)) return MakeResult(pending_stop_); \
    const uint32_t paddr = TranslateData(vaddr, nbytes, false);          \
    if (pending_stop_ != StopReason::kRunning) {                         \
      return MakeResult(pending_stop_);                                  \
    }                                                                    \
    cyc = cycles_ - op->cyc_before;                                      \
    read_stmt;                                                           \
    if (sb_interrupt_) {                                                 \
      pc_ = SB_OP_PC() + 4;                                              \
      SB_SYNC(op->cost);                                                 \
      goto outer;                                                        \
    }                                                                    \
    SB_NEXT();                                                           \
  }

// A store. Both paths keep the self-modifying-code guard: a store landing
// inside the superblocked text range kills overlapping blocks (two compares
// hot, cold call on overlap) and forces a block exit if the running block
// might be stale.
#define SB_STORE(kind, nbytes, write_stmt)                               \
  SB_CASE(kind) : {                                                      \
    const uint32_t vaddr = regs_[op->rs1] + static_cast<uint32_t>(op->imm); \
    if (data_hook_ == nullptr || vaddr < data_hook_lo_ ||                \
        vaddr >= data_hook_hi_) {                                        \
      if (!DataAddrOk(vaddr, nbytes, mem_.size())) {                     \
        pc_ = SB_OP_PC();                                                \
        SB_SYNC(0);                                                      \
        CheckDataAddr(vaddr, nbytes);                                    \
        return MakeResult(pending_stop_);                                \
      }                                                                  \
      const uint32_t paddr = vaddr;                                      \
      write_stmt;                                                        \
      if (paddr < sb_hi_ && paddr + nbytes > sb_lo_) {                   \
        pc_ = SB_OP_PC();                                                \
        SB_SYNC(op->cost);                                               \
        SuperblockStoreSlow(paddr, nbytes);                              \
        if (sb_interrupt_) {                                             \
          pc_ = SB_OP_PC() + 4;                                          \
          goto outer;                                                    \
        }                                                                \
      }                                                                  \
      SB_NEXT();                                                         \
    }                                                                    \
    pc_ = SB_OP_PC();                                                    \
    SB_SYNC(0);                                                          \
    if (!CheckDataAddr(vaddr, nbytes)) return MakeResult(pending_stop_); \
    const uint32_t paddr = TranslateData(vaddr, nbytes, true);           \
    if (pending_stop_ != StopReason::kRunning) {                         \
      return MakeResult(pending_stop_);                                  \
    }                                                                    \
    cyc = cycles_ - op->cyc_before;                                      \
    write_stmt;                                                          \
    if (paddr < sb_hi_ && paddr + nbytes > sb_lo_) {                     \
      SB_SYNC(op->cost);                                                 \
      SuperblockStoreSlow(paddr, nbytes);                                \
    }                                                                    \
    if (sb_interrupt_) {                                                 \
      pc_ = SB_OP_PC() + 4;                                              \
      SB_SYNC(op->cost);                                                 \
      goto outer;                                                        \
    }                                                                    \
    SB_NEXT();                                                           \
  }

namespace {

// The interpreter's CheckDataAddr as a branch-free-ish predicate; the cold
// caller re-runs CheckDataAddr to build the identical fault message.
inline bool DataAddrOk(uint32_t addr, uint32_t size, uint64_t mem_size) {
  return addr >= image::kNullGuardEnd &&
         static_cast<uint64_t>(addr) + size <= mem_size &&
         (size <= 1 || addr % size == 0);
}

}  // namespace

RunResult Machine::RunThreaded(uint64_t max_instructions) {
  if (pending_stop_ != StopReason::kRunning) return MakeResult(pending_stop_);
  if (sb_cache_ == nullptr) {
    sb_cache_ = std::make_unique<SuperblockCache>(mem_size());
  }

#if SC_SB_COMPUTED_GOTO
  // Label-address table, indexed by SbKind (same order as the enum).
  const void* handler_table[kSbKindCount] = {
      &&h_kSbAdd,  &&h_kSbSub,  &&h_kSbAnd,   &&h_kSbOr,     &&h_kSbXor,
      &&h_kSbSll,  &&h_kSbSrl,  &&h_kSbSra,   &&h_kSbSlt,    &&h_kSbSltu,
      &&h_kSbMul,  &&h_kSbDiv,  &&h_kSbDivu,  &&h_kSbRem,    &&h_kSbRemu,
      &&h_kSbAddi, &&h_kSbAndi, &&h_kSbOri,   &&h_kSbXori,   &&h_kSbSlti,
      &&h_kSbSltiu, &&h_kSbSlli, &&h_kSbSrli, &&h_kSbSrai,   &&h_kSbLui,
      &&h_kSbLw,   &&h_kSbLh,   &&h_kSbLhu,   &&h_kSbLb,     &&h_kSbLbu,
      &&h_kSbSw,   &&h_kSbSh,   &&h_kSbSb,    &&h_kSbBeq,    &&h_kSbBne,
      &&h_kSbBlt,  &&h_kSbBge,  &&h_kSbBltu,  &&h_kSbBgeu,   &&h_kSbJ,
      &&h_kSbJal,  &&h_kSbJalr, &&h_kSbSys,   &&h_kSbHalt,   &&h_kSbTcMiss,
      &&h_kSbTcJalr, &&h_kSbIllegal, &&h_kSbFallthrough, &&h_kSbStop,
  };
  static_assert(kSbKindCount == 49, "handler table must match SbKind");
  const void* const* handlers = handler_table;
  const void* const stop_handler = &&h_kSbStop;
#else
  const void* const* handlers = nullptr;
  const void* const stop_handler = nullptr;
#endif

  // The instret_ value at which the budget runs out (saturating).
  const uint64_t budget_end = max_instructions > UINT64_MAX - instret_
                                  ? UINT64_MAX
                                  : instret_ + max_instructions;
  uint64_t ret = instret_;
  uint64_t cyc = cycles_;
  Superblock* sb = nullptr;
  const SbOp* op = nullptr;
  // The chain slot of the block we just left, filled once its successor is
  // resolved so the next pass jumps block-to-block without coming back here.
  Superblock** chain_slot = nullptr;

outer:
  // Invariant here: instret_/cycles_ members are current (every goto outer
  // published them); the locals are reacquired just before dispatch.
  sb_interrupt_ = false;
  if (sb_cache_->reclaim_pending()) {
    // No block is executing here, so dead slab blocks (which chains and the
    // interrupted block may have pointed into) can finally be reused.
    chain_slot = nullptr;
    sb_cache_->Reclaim();
    SyncSuperblockBounds();
  }
  if (fetch_observer_ != nullptr) {
    // The interpreter runs observed code. Its guest stores do not kill
    // superblocks, so drop them (as set_engine does).
    FlushSuperblocks();
    return RunInterp(budget_end - instret_);
  }
  if (instret_ == budget_end) return MakeResult(StopReason::kInstrLimit);
  if (pc_ % 4 != 0 || static_cast<uint64_t>(pc_) + 4 > mem_.size() ||
      pc_ < image::kNullGuardEnd) {
    return FaultHere("bad fetch address");
  }
  if (exec_lo_ != exec_hi_ && (pc_ < exec_lo_ || pc_ >= exec_hi_)) {
    return FaultHere("fetch outside permitted range");
  }
  sb = sb_cache_->Find(pc_);
  // With no chain slot to fill (a slice resuming mid-block, a return from a
  // call-out or an interrupted block), a live block that covers pc_ is
  // entered in the middle instead of translating a new one. A chained exit
  // still gets a block that starts at its target.
  if (sb == nullptr && chain_slot == nullptr) sb = sb_cache_->FindCovering(pc_);
  if (sb == nullptr) {
    // A miss stub no live block covers (a branch or jump into an exit slot
    // the controller has not patched yet) traps here, without a block: the
    // trap rewrites the stub or evicts it, so a block formed around it
    // would run once. Like kSbTcMiss it retires one instruction and
    // charges nothing.
    uint32_t word = 0;
    std::memcpy(&word, mem_.data() + pc_, 4);
    if (isa::IsTcMiss(word) && trap_handler_ != nullptr) {
      chain_slot = nullptr;
      ++instret_;
      pc_ = trap_handler_->OnTcMiss(*this, isa::TcMissIndex(word));
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      goto outer;
    }
    const uint64_t flushes_before = sb_stats_.flushes;
    sb = TranslateSuperblock(pc_, handlers);
    // A capacity flush marked every block dead — including the one
    // chain_slot points into; drop the pending link.
    if (sb_stats_.flushes != flushes_before) chain_slot = nullptr;
  }
  if (chain_slot != nullptr) {
    *chain_slot = sb;
    ++sb_stats_.chains;
    OBS_INSTANT("vm", "sb.chain", "pc", pc_);
    chain_slot = nullptr;
  }
  // Enter at op k = (pc_ - start) / 4, 0 unless entered mid-block, with the
  // counters rebased to the block's first op.
  op = sb->ops + (pc_ - sb->start) / 4;
  ret = instret_ - static_cast<uint64_t>(op - sb->ops);
  cyc = cycles_ - op->cyc_before;
  if (budget_end - instret_ <
      sb->span / 4 - static_cast<uint32_t>(op - sb->ops)) {
    goto budget_tail;
  }
  SB_DISPATCH();

budget_tail:
  // The budget ends inside `sb`, `count` instructions after its entry op
  // (none of them its terminator): run a copy of those ops that ends in
  // kSbStop, with the counters rebased to the copy's first op.
  {
    const uint32_t from = static_cast<uint32_t>(op - sb->ops);
    const uint32_t count = static_cast<uint32_t>(budget_end - (ret + from));
    if (count == 0) {
      // Only a chained entry (op 0) can find nothing left: the dispatch loop
      // returns before entering a block with a spent budget.
      pc_ = sb->start;
      SB_FLUSH();
      return MakeResult(StopReason::kInstrLimit);
    }
    ret += from;
    cyc += op->cyc_before;
    sb = sb_cache_->BudgetTail(*sb, from, count, stop_handler);
    op = sb->ops;
    SB_DISPATCH();
  }

#if !SC_SB_COMPUTED_GOTO
dispatch:
  switch (static_cast<SbKind>(op->kind))
#endif
  {
    SB_ALU(kSbAdd, a + b)
    SB_ALU(kSbSub, a - b)
    SB_ALU(kSbAnd, a & b)
    SB_ALU(kSbOr, a | b)
    SB_ALU(kSbXor, a ^ b)
    SB_ALU(kSbSll, a << (b & 31))
    SB_ALU(kSbSrl, a >> (b & 31))
    SB_ALU(kSbSra, static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                         static_cast<int32_t>(b & 31)))
    SB_ALU(kSbSlt,
           static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1u : 0u)
    SB_ALU(kSbSltu, a < b ? 1u : 0u)
    SB_ALU(kSbMul, a * b)

    // INT_MIN / -1 overflows; define it as wrapping (result INT_MIN).
    SB_DIVIDE(kSbDiv, (a == 0x80000000u && b == UINT32_MAX)
                          ? a
                          : static_cast<uint32_t>(static_cast<int32_t>(a) /
                                                  static_cast<int32_t>(b)))
    SB_DIVIDE(kSbDivu, a / b)
    SB_DIVIDE(kSbRem, (a == 0x80000000u && b == UINT32_MAX)
                          ? 0u
                          : static_cast<uint32_t>(static_cast<int32_t>(a) %
                                                  static_cast<int32_t>(b)))
    SB_DIVIDE(kSbRemu, a % b)

    SB_ALUI(kSbAddi, a + static_cast<uint32_t>(imm))
    SB_ALUI(kSbAndi, a & static_cast<uint32_t>(imm))
    SB_ALUI(kSbOri, a | static_cast<uint32_t>(imm))
    SB_ALUI(kSbXori, a ^ static_cast<uint32_t>(imm))
    SB_ALUI(kSbSlti, static_cast<int32_t>(a) < imm ? 1u : 0u)
    SB_ALUI(kSbSltiu, a < static_cast<uint32_t>(imm) ? 1u : 0u)
    SB_ALUI(kSbSlli, a << (imm & 31))
    SB_ALUI(kSbSrli, a >> (imm & 31))
    SB_ALUI(kSbSrai,
            static_cast<uint32_t>(static_cast<int32_t>(a) >> (imm & 31)))

    SB_CASE(kSbLui) : {
      regs_[op->rd] = static_cast<uint32_t>(op->imm) << 16;
      SB_NEXT();
    }

    SB_LOAD(kSbLw, 4, {
      uint32_t value = 0;
      std::memcpy(&value, mem_.data() + paddr, 4);
      regs_[op->rd] = value;
    })
    SB_LOAD(kSbLh, 2, {
      int16_t v16 = 0;
      std::memcpy(&v16, mem_.data() + paddr, 2);
      regs_[op->rd] = static_cast<uint32_t>(static_cast<int32_t>(v16));
    })
    SB_LOAD(kSbLhu, 2, {
      uint16_t v16 = 0;
      std::memcpy(&v16, mem_.data() + paddr, 2);
      regs_[op->rd] = v16;
    })
    SB_LOAD(kSbLb, 1, {
      regs_[op->rd] = static_cast<uint32_t>(
          static_cast<int32_t>(static_cast<int8_t>(mem_[paddr])));
    })
    SB_LOAD(kSbLbu, 1, { regs_[op->rd] = mem_[paddr]; })

    SB_STORE(kSbSw, 4, {
      const uint32_t value = regs_[op->rd];
      std::memcpy(mem_.data() + paddr, &value, 4);
    })
    SB_STORE(kSbSh, 2, {
      const uint16_t v16 = static_cast<uint16_t>(regs_[op->rd]);
      std::memcpy(mem_.data() + paddr, &v16, 2);
    })
    SB_STORE(kSbSb, 1, { mem_[paddr] = static_cast<uint8_t>(regs_[op->rd]); })

    SB_BRANCH(kSbBeq, a == b)
    SB_BRANCH(kSbBne, a != b)
    SB_BRANCH(kSbBlt, static_cast<int32_t>(a) < static_cast<int32_t>(b))
    SB_BRANCH(kSbBge, static_cast<int32_t>(a) >= static_cast<int32_t>(b))
    SB_BRANCH(kSbBltu, a < b)
    SB_BRANCH(kSbBgeu, a >= b)

    SB_CASE(kSbJ) : {
      SB_RETIRE();
      SB_CHAIN(taken, static_cast<uint32_t>(op->imm));
    }
    SB_CASE(kSbJal) : {
      regs_[isa::kRa] = sb->start + sb->span;
      SB_RETIRE();
      SB_CHAIN(taken, static_cast<uint32_t>(op->imm));
    }
    SB_CASE(kSbJalr) : {
      const uint32_t target =
          (regs_[op->rs1] + static_cast<uint32_t>(op->imm)) & ~3u;
      regs_[op->rd] = sb->start + sb->span;
      SB_RETIRE();
      pc_ = target;  // dynamic target: resolve through the dispatch loop
      SB_FLUSH();
      goto outer;
    }

    SB_CASE(kSbSys) : {
      SB_RETIRE();
      pc_ = sb->start + sb->span - 4;  // OnIcacheInvalidate gets the pc
      SB_FLUSH();
      uint32_t next_pc = pc_ + 4;
      DoSyscall(op->imm, &next_pc);
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      // SYS ends the block: OnIcacheInvalidate may have evicted the very
      // code that issued it, so always re-resolve.
      pc_ = next_pc;
      goto outer;
    }
    SB_CASE(kSbHalt) : {
      pc_ = sb->start + sb->span - 4;
      SB_SYNC(0);
      pending_stop_ = StopReason::kHalted;
      exit_code_ = static_cast<int32_t>(regs_[isa::kA0]);
      return MakeResult(pending_stop_);
    }
    SB_CASE(kSbTcMiss) : {
      pc_ = sb->start + sb->span - 4;
      SB_SYNC(0);
      if (trap_handler_ == nullptr) {
        return FaultHere("TCMISS with no trap handler");
      }
      // The handler installs/patches code (killing overlapping superblocks
      // through InvalidateDecode) and returns the resume pc.
      pc_ = trap_handler_->OnTcMiss(*this, static_cast<uint32_t>(op->imm));
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      goto outer;
    }
    SB_CASE(kSbTcJalr) : {
      pc_ = sb->start + sb->span - 4;
      if (trap_handler_ == nullptr) {
        SB_SYNC(0);
        return FaultHere("TCJALR with no trap handler");
      }
      SB_SYNC(op->cost);
      Instr in;
      in.op = Opcode::kTcJalr;
      in.rd = op->rd;
      in.rs1 = op->rs1;
      in.imm = op->imm;
      pc_ = trap_handler_->OnTcJalr(*this, in, pc_);
      if (pending_stop_ != StopReason::kRunning) {
        return MakeResult(pending_stop_);
      }
      goto outer;
    }
    SB_CASE(kSbIllegal) : {
      pc_ = sb->start + sb->span - 4;
      SB_SYNC(0);
      return FaultIllegal(static_cast<uint32_t>(op->imm));
    }
    SB_CASE(kSbFallthrough) : {
      // Synthetic terminator: zero instructions, just a continuation.
      SB_RETIRE();
      SB_CHAIN(fall, sb->start + sb->span);
    }
    SB_CASE(kSbStop) : {
      // End of a budget tail: its ops retired, the budget is spent.
      SB_RETIRE();
      pc_ = sb->start + sb->span;
      SB_FLUSH();
      return MakeResult(StopReason::kInstrLimit);
    }
#if !SC_SB_COMPUTED_GOTO
    case kSbKindCount:
      break;  // never emitted by TranslateSuperblock
#endif
  }
#if !SC_SB_COMPUTED_GOTO
  SC_UNREACHABLE() << "threaded dispatch fell out of the switch";
#endif
}

#undef SB_CASE
#undef SB_NEXT
#undef SB_DISPATCH
#undef SB_OP_PC
#undef SB_SYNC
#undef SB_RETIRE
#undef SB_FLUSH
#undef SB_CHAIN
#undef SB_ALU
#undef SB_ALUI
#undef SB_BRANCH
#undef SB_DIVIDE
#undef SB_LOAD
#undef SB_STORE

}  // namespace sc::vm
