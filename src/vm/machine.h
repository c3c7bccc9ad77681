// The SRK32 virtual machine: a flat-memory interpreter with a deterministic
// cycle cost model and the hook points the software cache plugs into.
//
// Hook points:
//   * FetchObserver — sees every instruction fetch (address). The hardware
//     cache simulator (Figure 6) and the profiler (Figure 9) attach here.
//   * TrapHandler — receives TCMISS / TCJALR traps. The cache controller
//     (client side of the softcache) attaches here; on a miss it talks to
//     the memory controller, writes rewritten code into local memory via
//     this Machine's mem(), charges cycles, and returns the new PC.
//   * DataHook — translates data addresses in a configurable range. The
//     software D-cache (Section 3 of the paper) attaches here to redirect
//     loads/stores into its on-chip arrays and charge tag-check costs.
//
// The VM deliberately has no knowledge of caching; all caching behaviour
// lives behind these interfaces.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "image/image.h"
#include "image/layout.h"
#include "isa/isa.h"
#include "util/result.h"
#include "util/zero_pages.h"
#include "vm/superblock.h"

namespace sc::vm {

// Deterministic per-instruction costs in cycles. The absolute values are a
// simple in-order single-issue model (documented in DESIGN.md); every result
// we report is a ratio, so only relative costs matter.
struct CostModel {
  uint32_t alu = 1;
  uint32_t mul = 3;
  uint32_t div = 12;
  uint32_t load = 1;
  uint32_t store = 1;
  uint32_t branch = 1;
  uint32_t jump = 1;
  uint32_t syscall = 5;
};

enum class StopReason : uint8_t {
  kRunning = 0,
  kHalted,       // HALT or SYS exit; exit_code valid
  kFault,        // architectural fault; fault_message valid
  kInstrLimit,   // Run() hit its instruction budget
};

struct RunResult {
  StopReason reason = StopReason::kRunning;
  int32_t exit_code = 0;
  std::string fault_message;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
};

class Machine;

// Observes every instruction fetch. Kept as an abstract class (not
// std::function) so the inner loop pays one indirect call, no allocation.
class FetchObserver {
 public:
  virtual ~FetchObserver() = default;
  virtual void OnFetch(uint32_t pc) = 0;
};

// Handles softcache traps. See class comment above.
class TrapHandler {
 public:
  virtual ~TrapHandler() = default;
  // A TCMISS stub executed. Returns the PC to resume at.
  virtual uint32_t OnTcMiss(Machine& m, uint32_t stub_index) = 0;
  // A TCJALR executed at `pc`. The handler must implement the full jump:
  // compute the original target from the instruction operands, resolve it to
  // a local-memory address (translating on miss), write the link register,
  // and return the PC to resume at.
  virtual uint32_t OnTcJalr(Machine& m, const isa::Instr& instr, uint32_t pc) = 0;
  // SYS_ICACHE_INVAL executed at `pc` (self-modifying code contract).
  // Returns the PC to resume at — normally pc+4, but the handler may need
  // to relocate execution if the invalidation evicted the very code that
  // issued it.
  virtual uint32_t OnIcacheInvalidate(Machine& m, uint32_t addr, uint32_t len,
                                      uint32_t pc) = 0;
};

// Translates data addresses within the hooked range (software D-cache).
class DataHook {
 public:
  virtual ~DataHook() = default;
  // Returns the physical address the access should be performed at. May
  // charge cycles via m.Charge() and move data via m.mem(). `size` is 1, 2
  // or 4; `is_store` distinguishes read/write for dirty tracking.
  virtual uint32_t Translate(Machine& m, uint32_t vaddr, uint32_t size,
                             bool is_store) = 0;
};

// System call numbers (SYS instruction immediate).
enum Syscall : int32_t {
  kSysExit = 0,        // a0 = exit code
  kSysPutChar = 1,     // a0 = byte
  kSysGetChar = 2,     // rv = byte or -1 at EOF
  kSysWrite = 3,       // a0 = ptr, a1 = len
  kSysRead = 4,        // a0 = ptr, a1 = len; rv = bytes read
  kSysBrk = 5,         // a0 = bytes to grow; rv = old break (sbrk semantics)
  kSysCycles = 6,      // rv = low 32 bits of the cycle counter
  kSysIcacheInval = 7, // a0 = addr, a1 = len (forwarded to TrapHandler)
};

class Machine {
 public:
  explicit Machine(uint32_t mem_bytes = image::kDefaultMemBytes);

  // Copies the image's segments into memory, zeroes bss, sets PC to the
  // entry point, SP to the stack top and the heap break past bss.
  void LoadImage(const image::Image& img);

  // Executes until halt, fault, or `max_instructions` retired, on the
  // selected engine. Both engines produce bit-identical guest-visible
  // behavior (output, exit code, instruction and cycle counts, fault
  // messages, hook call sequences); they differ only in host speed.
  RunResult Run(uint64_t max_instructions = UINT64_MAX);

  // Engine selection; new machines run threaded. Switching engines flushes
  // the superblock cache (the interpreter validates stale decode entries by
  // word compare on every fetch; superblocks cannot, so anything translated
  // before an interp interlude must be rebuilt).
  Engine engine() const { return engine_; }
  void set_engine(Engine engine);

  // Threaded-engine counters (zero when only the interpreter ran). Stable
  // address for the Machine's lifetime, for the metrics registry.
  const SbStats& sb_stats() const { return sb_stats_; }

  // The threaded engine's translated-block store; null until the threaded
  // engine first runs. Inspector surface (superblock residency + chains).
  const SuperblockCache* sb_cache() const { return sb_cache_.get(); }

  // Superblock integrity stamping: when on, TranslateSuperblock records an
  // SbDigest in every block and ScrubSuperblocks can verify the cache.
  // Toggling flushes (pre-existing blocks carry no stamp). Bit-identity:
  // stamping changes no guest-visible behavior, only host work.
  void set_sb_integrity(bool on);
  bool sb_integrity() const { return sb_integrity_; }

  // Verifies every live superblock against its stamp, invalidating
  // mismatches so corrupted decoded code is retranslated from guest memory
  // instead of executed. Returns blocks killed; `words_scanned` (may be
  // null) accumulates ops walked. No-op unless set_sb_integrity(true).
  uint32_t ScrubSuperblocks(uint64_t* words_scanned);

  // Fault injection for the superblock domain: flips one bit in a random
  // live block's decoded form (see SuperblockCache::CorruptBit). Returns
  // false when nothing is live — e.g. under the interpreter engine.
  bool CorruptSuperblockBit(util::Rng& rng);

  // Degradation ladder: while [addr, addr+len) is poisoned, superblock
  // formation cuts blocks to a single real op over those words, so the
  // threaded engine executes them per-instruction (interpreter-equivalent
  // dispatch granularity, bit-identical semantics). Existing blocks over
  // the range are invalidated. The softcache quarantine path poisons a
  // tcache range after repeated corruption of the same chunk.
  void PoisonCodeRange(uint32_t addr, uint32_t len);
  void UnpoisonCodeRange(uint32_t addr, uint32_t len);
  bool CodePoisoned(uint32_t pc) const { return InPoison(pc); }
  size_t poison_range_count() const { return poison_.size(); }

  // Register file access. Writes to register 0 are ignored.
  uint32_t reg(uint8_t r) const { return regs_[r]; }
  void set_reg(uint8_t r, uint32_t v) {
    if (r != 0) regs_[r] = v;
  }
  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t pc) { pc_ = pc; }

  // Raw memory access (bounds-checked; faults become SC_CHECK failures when
  // performed from the host side, architectural faults when from the guest).
  uint8_t* mem_data() { return mem_.data(); }
  uint32_t mem_size() const { return static_cast<uint32_t>(mem_.size()); }

  // Host writes keep cached translations honest. WriteBlock kills every
  // superblock overlapping the range. WriteWord to an aligned word rewrites
  // the op in place instead when the old and the new word are both
  // terminators and the word ends every live block covering it (the cache
  // controller's branch, jump and miss-stub patches; see
  // SuperblockCache::Retarget); any other WriteWord kills like WriteBlock.
  // Both reset the interpreter's decode-cache entries for the words.
  //
  // A code installer that already decoded what it writes passes `decoded`:
  // isa::Decode of each of the len / 4 words, with `addr` word-aligned. The
  // machine keeps the last such handoff, and superblock translation takes
  // a word's op from it instead of decoding again while the word in memory
  // still equals the handed-over word (Decode is a pure function of the
  // word, so a match proves the Instr).
  uint32_t ReadWord(uint32_t addr) const;
  void WriteWord(uint32_t addr, uint32_t value);
  void ReadBlock(uint32_t addr, void* out, uint32_t len) const;
  void WriteBlock(uint32_t addr, const void* bytes, uint32_t len,
                  const isa::Instr* decoded = nullptr);

  // Drops cached translations (decode-cache entries and superblocks) over
  // [addr, addr+len) without touching memory: it always kills, never
  // rewrites in place. Code managers call it when text becomes *dead*
  // rather than different — e.g. the cache controller evicting a tcache
  // block — so stale translations don't outlive the code they were built
  // from.
  void InvalidateCode(uint32_t addr, uint32_t len) {
    InvalidateDecode(addr, len, /*rewrite=*/false);
  }

  // Forms, without publishing anything, the superblock TranslateSuperblock
  // would build at `start` from the current memory, exec range, poison and
  // cost model: writes its ops (at most kSbMaxOps + 1) to `ops`, its span
  // to `*span` and returns its op count. `start` must be a legal fetch
  // address. It decodes every word from memory and never reads the
  // WriteBlock handoff, so differential tests that check live blocks
  // against it also check the handoff.
  uint32_t FormSuperblock(uint32_t start, SbOp* ops, uint32_t* span) const {
    return FormOps(start, /*use_handoff=*/false, ops, span);
  }

  // Translates a data address through the installed data hook (identity when
  // no hook covers it). Host-side agents that must see the same memory the
  // guest sees — e.g. the cache controller's stack walker operating alongside
  // a software D-cache — route their accesses through this.
  uint32_t TranslateForHost(uint32_t vaddr, uint32_t size, bool is_store) {
    return TranslateData(vaddr, size, is_store);
  }

  // Adds simulated cycles (used by trap handlers to charge miss latency).
  void Charge(uint64_t cycles) { cycles_ += cycles; }
  uint64_t cycles() const { return cycles_; }
  uint64_t instructions() const { return instret_; }
  // Stable address of the cycle counter, for the tracer's clock source and
  // the metrics registry. Valid for the Machine's lifetime.
  const uint64_t* cycles_counter() const { return &cycles_; }
  const uint64_t* instructions_counter() const { return &instret_; }

  // Restrict instruction fetch to [lo, hi). Any fetch outside faults. The
  // softcache client uses this to *prove* it only ever executes from local
  // memory. Pass lo == hi == 0 to clear. Changing the range flushes the
  // superblock cache (block formation bakes the range check in).
  void SetExecRange(uint32_t lo, uint32_t hi);

  // Hook registration (non-owning; caller keeps the object alive). While a
  // fetch observer is attached, the threaded engine hands the run to the
  // interpreter.
  void set_fetch_observer(FetchObserver* obs) { fetch_observer_ = obs; }
  void set_trap_handler(TrapHandler* handler) { trap_handler_ = handler; }
  // Data accesses with vaddr in [lo, hi) go through `hook`.
  void SetDataHook(DataHook* hook, uint32_t lo, uint32_t hi) {
    data_hook_ = hook;
    data_hook_lo_ = lo;
    data_hook_hi_ = hi;
  }

  // Guest console / input stream.
  void SetInput(std::vector<uint8_t> input) {
    input_ = std::move(input);
    input_pos_ = 0;
  }
  const std::vector<uint8_t>& output() const { return output_; }
  std::string OutputString() const {
    return std::string(output_.begin(), output_.end());
  }

  const CostModel& cost_model() const { return cost_; }
  // Superblocks bake per-op cycle costs in at translation time, so changing
  // the model flushes them. A block's cycle prefix is 32 bits, so every cost
  // must be at most UINT32_MAX / (kSbMaxOps + 1); larger ones abort.
  void set_cost_model(const CostModel& cost);

  // Raises an architectural fault from inside a hook (e.g. the ARM-style
  // prototype faults on unsupported indirect jumps).
  void RaiseFault(const std::string& message);

 private:
  RunResult MakeResult(StopReason reason);
  bool CheckDataAddr(uint32_t addr, uint32_t size);
  uint32_t TranslateData(uint32_t addr, uint32_t size, bool is_store);
  void DoSyscall(int32_t number, uint32_t* next_pc);

  // The two engines behind Run(). RunInterp is the original fetch/decode/
  // switch loop; RunThreaded (superblock.cpp) is the direct-threaded
  // superblock engine.
  RunResult RunInterp(uint64_t max_instructions);
  RunResult RunThreaded(uint64_t max_instructions);
  // Forms and publishes a superblock starting at `start` (which the caller
  // has validated as a legal fetch address). `handlers` is the threaded
  // dispatch table (null in the switch fallback); the first call captures
  // it into the cache for ops filled outside the loop.
  Superblock* TranslateSuperblock(uint32_t start, const void* const* handlers);
  // FormSuperblock's body; with `use_handoff`, a word equal to its
  // WriteBlock handoff entry takes the handed-over Instr instead of a
  // decode.
  uint32_t FormOps(uint32_t start, bool use_handoff, SbOp* ops,
                   uint32_t* span) const;
  // Fills every field of `*op` but cyc_before from `in`, the decoded guest
  // `word` at `pc`: kind, registers, cost, the immediate (the absolute
  // target for direct branches and jumps, the raw word for an illegal one)
  // and the handler. `word` is read only for an illegal op.
  void FillOp(const isa::Instr& in, uint32_t word, uint32_t pc,
              const void* const* handlers, SbOp* op) const;
  // WriteWord's in-place path: refills the op of the word just written at
  // `addr` and hands it to SuperblockCache::Retarget. False when the write
  // must kill instead (unaligned, uncovered, or Retarget declines).
  bool RetargetSuperblocks(uint32_t addr);
  // Marks every superblock dead (invalidation/flush paths and engine
  // switches); storage is reclaimed at the dispatch loop's next iteration.
  void FlushSuperblocks();
  // Refreshes the [sb_lo_, sb_hi_) store fast-path bounds from the cache.
  void SyncSuperblockBounds();
  // A guest-side byte store landed inside the superblocked range (direct
  // store or SYS_READ): kill overlapping blocks. Cold path of the inlined
  // bounds check.
  [[gnu::noinline]] void SuperblockStoreSlow(uint32_t paddr, uint32_t size);
  // True when `pc` lies inside any poisoned code range (linear scan; the
  // ladder keeps at most a handful of ranges live).
  bool InPoison(uint32_t pc) const {
    for (const auto& r : poison_) {
      if (pc >= r.first && pc < r.second) return true;
    }
    return false;
  }

  // Cold-path fault constructors. Building an ostringstream inlines a pile
  // of iostream machinery into Run()'s loop; keeping these out of line makes
  // every hot-loop failure check a compare-and-branch to a far call.
  [[gnu::noinline, gnu::cold]] RunResult FaultHere(const char* what);
  [[gnu::noinline, gnu::cold]] RunResult FaultIllegal(uint32_t word);
  [[gnu::noinline, gnu::cold]] void FaultDataAddr(const char* what,
                                                  uint32_t addr, uint32_t size);
  [[gnu::noinline, gnu::cold]] void FaultSyscall(int32_t number);

  // Decoded-instruction cache: direct-mapped on word index. An entry is
  // trusted when its cached raw word equals the word fetched from memory —
  // Decode is a pure function of the word, so a word match guarantees the
  // cached Instr is correct even for index aliasing or guest stores that
  // write mem_ directly. WriteWord/WriteBlock into the exec range also reset
  // affected entries explicitly. An all-zero entry is {0, Decode(0)} (pinned
  // by a test), so a fresh zero-page cache is valid without being filled.
  struct DecodeEntry {
    uint32_t word = 0;
    isa::Instr instr;
  };
  static constexpr uint32_t kDecodeCacheBits = 16;
  static constexpr uint32_t kDecodeCacheEntries = 1u << kDecodeCacheBits;
  static constexpr uint32_t kDecodeCacheMask = kDecodeCacheEntries - 1;
  // Resets the decode-cache entries of [addr, addr+len) and kills the
  // superblocks over it; with `rewrite` (a host WriteWord), first tries
  // RetargetSuperblocks.
  void InvalidateDecode(uint32_t addr, uint32_t len, bool rewrite);

  // regs_[kSinkReg] is not architectural: superblock translation points an
  // rd of 0 there, so threaded handlers store without testing rd.
  static constexpr uint8_t kSinkReg = isa::kNumRegs;
  std::array<uint32_t, isa::kNumRegs + 1> regs_{};
  uint32_t pc_ = 0;
  // Lazy zero pages: a client pays RSS only for the guest pages it touches.
  std::vector<uint8_t, util::ZeroPageAllocator<uint8_t>> mem_;
  // Allocated lazily on the first interpreter Run() (a Machine used only as
  // a memory container pays nothing), on zero pages for the same reason.
  std::vector<DecodeEntry, util::ZeroPageAllocator<DecodeEntry>> decode_cache_;
  // The last WriteBlock handoff: handoff_[i] is the word written at
  // handoff_addr_ + 4 * i with its decoded form, trusted by the same word
  // compare as the decode cache.
  uint32_t handoff_addr_ = 0;
  std::vector<DecodeEntry> handoff_;
  // Threaded engine state. The cache is allocated lazily on the first
  // threaded Run; sb_lo_/sb_hi_ mirror its bounds so the store hot path's
  // self-modifying-code check is two compares against locals. sb_interrupt_
  // is raised whenever invalidation kills blocks while the threaded loop is
  // inside one — the loop leaves the (possibly stale) block at the next op
  // boundary and re-resolves through the dispatch loop, which may enter a
  // live block covering the resume pc mid-way.
  Engine engine_ = Engine::kThreaded;
  std::unique_ptr<SuperblockCache> sb_cache_;
  SbStats sb_stats_;
  uint32_t sb_lo_ = UINT32_MAX;
  uint32_t sb_hi_ = 0;
  bool sb_interrupt_ = false;
  // Integrity state: digest stamping toggle + poisoned [lo, hi) code ranges
  // (degradation ladder; see PoisonCodeRange).
  bool sb_integrity_ = false;
  std::vector<std::pair<uint32_t, uint32_t>> poison_;
  uint64_t cycles_ = 0;
  uint64_t instret_ = 0;
  CostModel cost_;

  uint32_t exec_lo_ = 0;
  uint32_t exec_hi_ = 0;

  FetchObserver* fetch_observer_ = nullptr;
  TrapHandler* trap_handler_ = nullptr;
  DataHook* data_hook_ = nullptr;
  uint32_t data_hook_lo_ = 0;
  uint32_t data_hook_hi_ = 0;

  std::vector<uint8_t> input_;
  size_t input_pos_ = 0;
  std::vector<uint8_t> output_;
  uint32_t brk_ = 0;

  // Run-state latched by faults/halt inside a step.
  StopReason pending_stop_ = StopReason::kRunning;
  int32_t exit_code_ = 0;
  std::string fault_message_;
};

}  // namespace sc::vm
