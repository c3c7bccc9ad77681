// Software I-cache tests: equivalence with native execution, hit-rate
// guarantees, rewriting/patching behaviour, eviction and invalidation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "minicc/compiler.h"
#include "softcache/system.h"
#include "tests/testing.h"

namespace sc {
namespace {

using softcache::EvictPolicy;
using softcache::SoftCacheConfig;
using softcache::SoftCacheSystem;
using softcache::Style;

image::Image Compile(std::string_view source) {
  auto img = minicc::CompileMiniC(source);
  SC_CHECK(img.ok()) << img.error().ToString();
  return std::move(*img);
}

// Runs `source` natively and under the given softcache config; requires
// identical exit codes and output, and intact CC invariants afterwards.
void ExpectEquivalent(std::string_view source, const SoftCacheConfig& config,
                      const std::string& input = "",
                      uint64_t max_instr = 100'000'000) {
  const image::Image img = Compile(source);

  std::string native_out;
  const vm::RunResult native = softcache::RunNative(img, input, &native_out, max_instr);
  ASSERT_EQ(native.reason, vm::StopReason::kHalted)
      << "native run failed: " << native.fault_message;

  SoftCacheSystem system(img, config);
  system.SetInput(input);
  const vm::RunResult cached = system.Run(max_instr);
  EXPECT_EQ(cached.reason, vm::StopReason::kHalted)
      << "softcache fault: " << cached.fault_message;
  EXPECT_EQ(cached.exit_code, native.exit_code);
  EXPECT_EQ(system.OutputString(), native_out);
  // The cached run retires at least as many instructions (extra jumps).
  EXPECT_GE(cached.instructions, native.instructions);
  system.cc().CheckInvariants();
}

SoftCacheConfig SparcConfig(uint32_t tcache_bytes,
                            EvictPolicy evict = EvictPolicy::kFifoRing) {
  SoftCacheConfig config;
  config.style = Style::kSparc;
  config.tcache_bytes = tcache_bytes;
  config.evict = evict;
  return config;
}

SoftCacheConfig ArmConfig(uint32_t tcache_bytes,
                          EvictPolicy evict = EvictPolicy::kFifoRing) {
  SoftCacheConfig config;
  config.style = Style::kArm;
  config.tcache_bytes = tcache_bytes;
  config.evict = evict;
  return config;
}

// --- Programs used across tests ---

constexpr const char* kFibProgram = R"(
  int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
  int main() { return fib(15); }
)";

constexpr const char* kLoopProgram = R"(
  int main() {
    int sum = 0;
    for (int i = 0; i < 5000; i++) sum += i % 7;
    return sum % 251;
  }
)";

constexpr const char* kCallChainProgram = R"(
  int leaf(int x) { return x * 3 + 1; }
  int mid(int x) { return leaf(x) + leaf(x + 1); }
  int top(int x) { return mid(x) + mid(x + 2); }
  int main() {
    int sum = 0;
    for (int i = 0; i < 200; i++) sum += top(i) % 13;
    return sum % 251;
  }
)";

constexpr const char* kSwitchProgram = R"(
  int dispatch(int x) {
    switch (x & 7) {
      case 0: return 3;
      case 1: return 1;
      case 2: return 4;
      case 3: return 1;
      case 4: return 5;
      case 5: return 9;
      case 6: return 2;
      default: return 6;
    }
  }
  int main() {
    int sum = 0;
    for (int i = 0; i < 500; i++) sum += dispatch(i);
    return sum % 251;
  }
)";

constexpr const char* kFnPtrProgram = R"(
  int add(int a, int b) { return a + b; }
  int sub(int a, int b) { return a - b; }
  int mix(int a, int b) { return a * 2 - b; }
  int (*ops[3])(int, int) = { add, sub, mix };
  int main() {
    int sum = 0;
    for (int i = 0; i < 300; i++) sum += ops[i % 3](i, 7) & 15;
    return sum % 251;
  }
)";

constexpr const char* kIoProgram = R"(
  int main() {
    int c;
    int count = 0;
    while ((c = getchar()) != -1) {
      if (c >= 'a' && c <= 'z') c = c - 'a' + 'A';
      putchar(c);
      count++;
    }
    print_nl();
    print_int(count);
    return 0;
  }
)";

// ---------------------------------------------------------------------------
// Equivalence: SPARC style
// ---------------------------------------------------------------------------

TEST(SoftCacheSparc, TrivialProgram) {
  ExpectEquivalent("int main() { return 42; }", SparcConfig(8192));
}

TEST(SoftCacheSparc, LoopLargeCache) {
  ExpectEquivalent(kLoopProgram, SparcConfig(32 * 1024));
}

TEST(SoftCacheSparc, RecursionLargeCache) {
  ExpectEquivalent(kFibProgram, SparcConfig(32 * 1024));
}

TEST(SoftCacheSparc, CallChain) {
  ExpectEquivalent(kCallChainProgram, SparcConfig(32 * 1024));
}

TEST(SoftCacheSparc, SwitchJumpTable) {
  ExpectEquivalent(kSwitchProgram, SparcConfig(32 * 1024));
}

TEST(SoftCacheSparc, FunctionPointers) {
  ExpectEquivalent(kFnPtrProgram, SparcConfig(32 * 1024));
}

TEST(SoftCacheSparc, InputOutput) {
  ExpectEquivalent(kIoProgram, SparcConfig(32 * 1024), "hello World 123!");
}

// Tiny caches force eviction storms; results must still be identical.
TEST(SoftCacheSparc, TinyCacheFifo) {
  ExpectEquivalent(kFibProgram, SparcConfig(1024, EvictPolicy::kFifoRing));
  ExpectEquivalent(kCallChainProgram, SparcConfig(1024, EvictPolicy::kFifoRing));
  ExpectEquivalent(kSwitchProgram, SparcConfig(1024, EvictPolicy::kFifoRing));
  ExpectEquivalent(kFnPtrProgram, SparcConfig(1024, EvictPolicy::kFifoRing));
}

TEST(SoftCacheSparc, TinyCacheFlushAll) {
  ExpectEquivalent(kFibProgram, SparcConfig(1024, EvictPolicy::kFlushAll));
  ExpectEquivalent(kCallChainProgram, SparcConfig(1024, EvictPolicy::kFlushAll));
  ExpectEquivalent(kSwitchProgram, SparcConfig(1024, EvictPolicy::kFlushAll));
  ExpectEquivalent(kFnPtrProgram, SparcConfig(1024, EvictPolicy::kFlushAll));
}

TEST(SoftCacheSparc, MediumCacheSweep) {
  for (uint32_t size : {2048u, 4096u, 8192u, 16384u}) {
    ExpectEquivalent(kCallChainProgram, SparcConfig(size));
  }
}

// ---------------------------------------------------------------------------
// Equivalence: ARM style (procedure chunks; no computed jumps)
// ---------------------------------------------------------------------------

TEST(SoftCacheArm, TrivialProgram) {
  ExpectEquivalent("int main() { return 42; }", ArmConfig(32 * 1024));
}

TEST(SoftCacheArm, Loop) { ExpectEquivalent(kLoopProgram, ArmConfig(32 * 1024)); }

TEST(SoftCacheArm, Recursion) {
  ExpectEquivalent(kFibProgram, ArmConfig(32 * 1024));
}

TEST(SoftCacheArm, CallChain) {
  ExpectEquivalent(kCallChainProgram, ArmConfig(32 * 1024));
}

TEST(SoftCacheArm, InputOutput) {
  ExpectEquivalent(kIoProgram, ArmConfig(32 * 1024), "abcXYZ");
}

TEST(SoftCacheArm, SmallCacheEvictions) {
  // Must be big enough for the largest single procedure, small enough to
  // evict across calls.
  ExpectEquivalent(kCallChainProgram, ArmConfig(3 * 1024));
}

TEST(SoftCacheArm, FlushAllPolicy) {
  ExpectEquivalent(kCallChainProgram, ArmConfig(3 * 1024, EvictPolicy::kFlushAll));
}

TEST(SoftCacheArm, BranchesOverCallExpansionsRemapCorrectly) {
  // ARM-style call sites expand 1 word -> 3 words, shifting every later
  // instruction; internal branches that jump *over* call sites must be
  // remapped through the index map. Dense branching around calls is the
  // stress case.
  ExpectEquivalent(R"(
    int f(int a) { return a * 3 + 1; }
    int g(int a) { return a - 2; }
    int main() {
      int acc = 0;
      for (int i = 0; i < 300; i++) {
        if (i & 1) acc += f(i);
        else if (i & 2) acc -= g(i);
        else if (i & 4) acc ^= f(g(i));
        else acc += i;
        while (acc > 10000) acc -= f(acc & 1023);
      }
      return acc % 251;
    }
  )", ArmConfig(32 * 1024));
}

TEST(SoftCacheArm, SelfRecursionLinksDirectly) {
  // Self-recursive calls link to the procedure's own entry at install time
  // (no stub round trip); deep recursion must still be exact.
  ExpectEquivalent(R"(
    int fact(int n) { return n <= 1 ? 1 : (fact(n - 1) * n) % 10007; }
    int main() { return fact(500) % 251; }
  )", ArmConfig(8 * 1024));
}

TEST(SoftCacheArm, IndirectJumpFaults) {
  // The ARM prototype does not support indirect jumps: translation of a
  // procedure containing a computed call must fault, not misexecute.
  const image::Image img = Compile(kFnPtrProgram);
  SoftCacheSystem system(img, ArmConfig(32 * 1024));
  const vm::RunResult result = system.Run(10'000'000);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_NE(result.fault_message.find("indirect jump"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hit-rate guarantee and rewriting behaviour
// ---------------------------------------------------------------------------

// The paper's guarantee: a working set that fits the (fully associative)
// tcache takes no misses after warm-up — each basic block is translated
// exactly once, so the miss count equals the resident block count and never
// grows afterwards.
TEST(SoftCacheGuarantee, ZeroMissesInSteadyState) {
  const image::Image img = Compile(kLoopProgram);
  SoftCacheSystem system(img, SparcConfig(64 * 1024));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  const auto& stats = system.stats();
  // No evictions (everything fits) and every block translated exactly once.
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.flushes, 0u);
  EXPECT_EQ(stats.blocks_translated, system.cc().ResidentBlocks());
  // 5000-iteration loop: misses are a vanishing fraction of instructions.
  EXPECT_LT(system.MissRate(), 0.01);
}

TEST(SoftCacheGuarantee, WarmLoopTakesNoTraps) {
  // Run the loop once to warm the cache, snapshot trap counts, run more
  // iterations: the hot loop must execute with zero additional traps — the
  // claim that hits execute no tag checks at all.
  const image::Image img = Compile(R"(
    int work(int n) {
      int sum = 0;
      for (int i = 0; i < n; i++) sum += (i * 3) % 11;
      return sum;
    }
    int main() {
      work(100);              /* warm up */
      return work(20000) % 251; /* steady state */
    }
  )");
  SoftCacheSystem system(img, SparcConfig(64 * 1024));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  const auto& stats = system.stats();
  // The steady-state loop body is ~20 instructions * 20000 iterations; traps
  // happen only during warm-up, so the total trap count stays tiny.
  EXPECT_LT(stats.tcmiss_traps, 200u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SoftCacheRewrite, BranchesArePatchedOnce) {
  const image::Image img = Compile(kLoopProgram);
  SoftCacheSystem system(img, SparcConfig(64 * 1024));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  const auto& stats = system.stats();
  // Every patch corresponds to a resolved exit; with no evictions the
  // number of patches is bounded by ~2 per translated block.
  EXPECT_LE(stats.patches_applied, 2 * stats.blocks_translated);
  EXPECT_GT(stats.patches_applied, 0u);
}

TEST(SoftCacheRewrite, ComputedJumpsUseHashLookups) {
  const image::Image img = Compile(kSwitchProgram);
  SoftCacheSystem system(img, SparcConfig(64 * 1024));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  // 500 dispatches; 7 of 8 residue classes go through the jump table (the
  // eighth falls to default at the bounds check) -> ~438 hash lookups.
  EXPECT_GE(system.stats().hash_lookups, 400u);
  // But only a handful of them translate (8 case targets).
  EXPECT_LE(system.stats().hash_lookup_misses, 16u);
}

TEST(SoftCacheRewrite, ClientExecutesOnlyLocalMemory) {
  // restrict_exec is on by default: the run completing proves the client
  // never fetched an instruction outside [local_base, local_limit).
  const image::Image img = Compile(kCallChainProgram);
  SoftCacheConfig config = SparcConfig(32 * 1024);
  ASSERT_TRUE(config.restrict_exec);
  SoftCacheSystem system(img, config);
  const vm::RunResult result = system.Run(100'000'000);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted)
      << result.fault_message;
}

TEST(SoftCacheRewrite, TransferAccounting) {
  const image::Image img = Compile(kFibProgram);
  SoftCacheSystem system(img, SparcConfig(32 * 1024));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  const auto& net = system.channel().stats();
  const auto& stats = system.stats();
  // One request/reply pair per translated block.
  EXPECT_EQ(net.messages_to_server, stats.blocks_translated);
  EXPECT_EQ(net.messages_to_client, stats.blocks_translated);
  // Every fetch pays exactly the 60-byte protocol overhead plus payload.
  const uint64_t payload = net.total_bytes() -
      stats.blocks_translated * softcache::kPerChunkOverheadBytes;
  EXPECT_EQ(payload % 4, 0u);
  EXPECT_GT(payload, 0u);
}

// ---------------------------------------------------------------------------
// Eviction correctness
// ---------------------------------------------------------------------------

// Measures the peak tcache footprint of `img` under `base`, then returns a
// config whose tcache holds only `fraction` of it (rounded to words),
// guaranteeing capacity pressure on a re-run.
SoftCacheConfig Shrunk(const image::Image& img, SoftCacheConfig base,
                       double fraction) {
  SoftCacheConfig probe = base;
  probe.tcache_bytes = 64 * 1024;
  SoftCacheSystem system(img, probe);
  const vm::RunResult result = system.Run(200'000'000);
  SC_CHECK(result.reason == vm::StopReason::kHalted) << result.fault_message;
  const uint64_t peak = system.stats().tcache_bytes_used_peak;
  SC_CHECK_GT(peak, 0u);
  base.tcache_bytes =
      static_cast<uint32_t>(static_cast<double>(peak) * fraction) & ~3u;
  base.tcache_bytes = std::max(base.tcache_bytes, 256u);
  return base;
}

TEST(SoftCacheEvict, EvictionsHappenInTinyCache) {
  const image::Image img = Compile(kCallChainProgram);
  SoftCacheSystem system(img, Shrunk(img, SparcConfig(0), 0.5));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(system.stats().evictions, 0u);
  // Retranslation after eviction: more translations than resident blocks.
  EXPECT_GT(system.stats().blocks_translated, system.cc().ResidentBlocks());
}

TEST(SoftCacheEvict, StackWalkFixesReturnAddresses) {
  // Deep recursion + tiny cache: blocks holding pending return addresses
  // are evicted and the stack walker must repair every frame.
  const image::Image img = Compile(R"(
    int deep(int n, int acc) {
      if (n == 0) return acc;
      int x = (acc * 7 + n) % 1000;
      return deep(n - 1, x) + 1;
    }
    int main() { return deep(120, 3) % 200; }
  )");
  SoftCacheSystem system(img, Shrunk(img, SparcConfig(0), 0.4));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;

  std::string native_out;
  const vm::RunResult native = softcache::RunNative(img, "", &native_out);
  EXPECT_EQ(result.exit_code, native.exit_code);
  EXPECT_GT(system.stats().return_addr_fixups, 0u);
  system.cc().CheckInvariants();
}

TEST(SoftCacheEvict, FlushAllSurvivesDeepRecursion) {
  const image::Image img = Compile(R"(
    int deep(int n) { return n == 0 ? 1 : deep(n - 1) + n % 3; }
    int main() { return deep(150) % 200; }
  )");
  SoftCacheSystem system(img, Shrunk(img, SparcConfig(0, EvictPolicy::kFlushAll), 0.4));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(system.stats().flushes, 0u);
  const vm::RunResult native = softcache::RunNative(img, "", nullptr);
  EXPECT_EQ(result.exit_code, native.exit_code);
}

TEST(SoftCacheEvict, ArmRedirectorsSurviveEviction) {
  // ARM style: evict procedures while calls are pending; redirector cells
  // must route returns back through re-translated procedures.
  const image::Image img = Compile(R"(
    int a(int x);
    int b(int x) { return x <= 0 ? 1 : a(x - 1) * 2 % 97; }
    int a(int x) { return x <= 0 ? 2 : b(x - 1) + 3; }
    int main() { return a(60) % 200; }
  )");
  SoftCacheSystem system(img, Shrunk(img, ArmConfig(0), 0.8));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(system.stats().evictions, 0u);
  EXPECT_GT(system.stats().redirector_words, 0u);
  const vm::RunResult native = softcache::RunNative(img, "", nullptr);
  EXPECT_EQ(result.exit_code, native.exit_code);
  system.cc().CheckInvariants();
}

TEST(SoftCacheEvict, BlockLargerThanCacheFaults) {
  // ARM-style chunks are whole procedures; main() cannot fit in 64 bytes.
  const image::Image img = Compile(kLoopProgram);
  SoftCacheSystem system(img, ArmConfig(64));
  const vm::RunResult result = system.Run(1'000'000);
  EXPECT_EQ(result.reason, vm::StopReason::kFault);
  EXPECT_NE(result.fault_message.find("exceeds tcache"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace chunking (superblocks with mid-chunk side exits)
// ---------------------------------------------------------------------------

SoftCacheConfig TraceConfig(uint32_t tcache_bytes, uint32_t trace_blocks,
                            EvictPolicy evict = EvictPolicy::kFifoRing) {
  SoftCacheConfig config = SparcConfig(tcache_bytes, evict);
  config.max_trace_blocks = trace_blocks;
  return config;
}

TEST(SoftCacheTrace, EquivalentAtEveryTraceLength) {
  for (const uint32_t blocks : {2u, 4u, 8u}) {
    ExpectEquivalent(kLoopProgram, TraceConfig(32 * 1024, blocks));
    ExpectEquivalent(kCallChainProgram, TraceConfig(32 * 1024, blocks));
    ExpectEquivalent(kSwitchProgram, TraceConfig(32 * 1024, blocks));
    ExpectEquivalent(kFibProgram, TraceConfig(32 * 1024, blocks));
  }
}

TEST(SoftCacheTrace, EquivalentUnderEvictionPressure) {
  ExpectEquivalent(kCallChainProgram, TraceConfig(1024, 4));
  ExpectEquivalent(kFibProgram, TraceConfig(1024, 4, EvictPolicy::kFlushAll));
}

TEST(SoftCacheTrace, FewerChunksThanBasicBlocks) {
  const image::Image img = Compile(kCallChainProgram);
  SoftCacheSystem bb_system(img, TraceConfig(64 * 1024, 1));
  ASSERT_EQ(bb_system.Run(100'000'000).reason, vm::StopReason::kHalted);
  SoftCacheSystem trace_system(img, TraceConfig(64 * 1024, 6));
  ASSERT_EQ(trace_system.Run(100'000'000).reason, vm::StopReason::kHalted);
  // Traces merge fallthrough chains: strictly fewer chunk fetches.
  EXPECT_LT(trace_system.stats().blocks_translated,
            bb_system.stats().blocks_translated);
  trace_system.cc().CheckInvariants();
}

TEST(SoftCacheTrace, SideExitsArePatchedLikeTerminators) {
  const image::Image img = Compile(kLoopProgram);
  SoftCacheSystem system(img, TraceConfig(64 * 1024, 8));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  // Steady state: trap count bounded by (small constant per block), i.e.
  // the 5000-iteration loop is NOT trapping per iteration on side exits.
  EXPECT_LT(system.stats().tcmiss_traps, 100u);
  system.cc().CheckInvariants();
}

// ---------------------------------------------------------------------------
// Explicit invalidation (self-modifying code contract)
// ---------------------------------------------------------------------------

TEST(SoftCacheInval, IcacheInvalEvictsBlocks) {
  const image::Image img = Compile(kLoopProgram);
  SoftCacheSystem system(img, SparcConfig(64 * 1024));
  ASSERT_EQ(system.Run(100'000'000).reason, vm::StopReason::kHalted);
  const size_t resident = system.cc().ResidentBlocks();
  ASSERT_GT(resident, 0u);
  // Invalidate the whole text range; every block must go, except that the
  // handler re-translates the block containing the (halted) current PC so
  // execution could resume in fresh code.
  (void)system.cc().OnIcacheInvalidate(system.machine(), img.text_base,
                                       static_cast<uint32_t>(img.text.size()),
                                       system.machine().pc());
  EXPECT_LE(system.cc().ResidentBlocks(), 1u);
  system.cc().CheckInvariants();
}

// ---------------------------------------------------------------------------
// Pinning (the paper's "flexible data pinning" capability)
// ---------------------------------------------------------------------------

TEST(SoftCachePin, PinnedBlockSurvivesEvictionStorm) {
  const image::Image img = Compile(kCallChainProgram);
  const image::Symbol* leaf = img.FindSymbol("leaf");
  ASSERT_NE(leaf, nullptr);
  SoftCacheSystem system(img, Shrunk(img, SparcConfig(0), 0.5));
  ASSERT_TRUE(system.cc().Pin(leaf->addr));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(system.stats().evictions, 0u);
  // The pinned entry block stayed resident through every eviction.
  EXPECT_TRUE(system.cc().IsResident(leaf->addr));
  EXPECT_GT(system.cc().pinned_bytes(), 0u);
  const vm::RunResult native = softcache::RunNative(img, "", nullptr);
  EXPECT_EQ(result.exit_code, native.exit_code);
  system.cc().CheckInvariants();
}

TEST(SoftCachePin, PinnedBlockSurvivesFlushAll) {
  const image::Image img = Compile(kCallChainProgram);
  const image::Symbol* leaf = img.FindSymbol("leaf");
  ASSERT_NE(leaf, nullptr);
  SoftCacheSystem system(img, Shrunk(img, SparcConfig(0, EvictPolicy::kFlushAll), 0.5));
  ASSERT_TRUE(system.cc().Pin(leaf->addr));
  const vm::RunResult result = system.Run(100'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(system.stats().flushes, 0u);
  EXPECT_TRUE(system.cc().IsResident(leaf->addr));
  const vm::RunResult native = softcache::RunNative(img, "", nullptr);
  EXPECT_EQ(result.exit_code, native.exit_code);
  system.cc().CheckInvariants();
}

TEST(SoftCachePin, UnpinMakesBlockEvictableAgain) {
  const image::Image img = Compile(kLoopProgram);
  SoftCacheSystem system(img, SparcConfig(8192));
  ASSERT_TRUE(system.cc().Pin(img.entry));
  EXPECT_GT(system.cc().pinned_bytes(), 0u);
  system.cc().Unpin(img.entry);
  EXPECT_EQ(system.cc().pinned_bytes(), 0u);
  // Invalidation may now evict it like any block.
  (void)system.cc().OnIcacheInvalidate(system.machine(), img.text_base,
                                       static_cast<uint32_t>(img.text.size()),
                                       system.machine().pc());
  system.cc().CheckInvariants();
}

TEST(SoftCachePin, UnpinResolvesArmInteriorAddresses) {
  // Pin and Unpin must agree on address resolution: under ARM style both
  // accept any address inside a resident procedure, so Pin(p); Unpin(p + 4)
  // really unpins the block (Unpin used to require the exact block start
  // and silently no-op on interior addresses).
  const image::Image img = Compile(kCallChainProgram);
  const image::Symbol* leaf = img.FindSymbol("leaf");
  ASSERT_NE(leaf, nullptr);
  SoftCacheSystem system(img, ArmConfig(32 * 1024));
  ASSERT_TRUE(system.cc().Pin(leaf->addr));
  EXPECT_GT(system.cc().pinned_bytes(), 0u);
  system.cc().Unpin(leaf->addr + 4);  // interior of leaf
  EXPECT_EQ(system.cc().pinned_bytes(), 0u);
  system.cc().CheckInvariants();
}

TEST(SoftCachePin, OverPinningFaultsCleanly) {
  // Pin more code than the tcache holds: allocation must fail with a clear
  // fault, not corrupt pinned blocks.
  const image::Image img = Compile(kCallChainProgram);
  softcache::SoftCacheConfig config = SparcConfig(512);
  SoftCacheSystem system(img, config);
  auto& cc = system.cc();
  // Pin entry blocks of every function until pinning itself fails.
  bool fault = false;
  for (const image::Symbol* fn : img.Functions()) {
    if (!cc.Pin(fn->addr)) {
      fault = true;
      break;
    }
    if (cc.pinned_bytes() > 400) break;
  }
  const vm::RunResult result = system.Run(100'000'000);
  if (result.reason == vm::StopReason::kFault) {
    EXPECT_NE(result.fault_message.find("pinned"), std::string::npos)
        << result.fault_message;
  } else {
    EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  }
  (void)fault;
}

// ---------------------------------------------------------------------------
// Failed-install rollback
// ---------------------------------------------------------------------------

TEST(SoftCacheRewrite, InstallArmRollsBackOnForwardCellExhaustion) {
  // `mid` contains two call sites. With room for exactly one forward cell,
  // emission of the second call site fails halfway through pass 2, after
  // the block is registered and the first cell is bound to it. The
  // half-built block must be unwound completely, not left registered.
  const image::Image img = Compile(kCallChainProgram);
  const image::Symbol* mid = img.FindSymbol("mid");
  ASSERT_NE(mid, nullptr);
  SoftCacheConfig config = ArmConfig(32 * 1024);
  config.forward_cell_bytes = 4;
  SoftCacheSystem system(img, config);
  auto& cc = system.cc();
  EXPECT_FALSE(cc.Pin(mid->addr));
  EXPECT_FALSE(cc.IsResident(mid->addr));
  EXPECT_EQ(cc.ResidentBlocks(), 0u);
  EXPECT_EQ(cc.pinned_bytes(), 0u);
  // The unwind is not an eviction and must not count as one.
  EXPECT_EQ(system.stats().evictions, 0u);
  EXPECT_EQ(system.stats().extra_words_live, 0u);
  cc.CheckInvariants();
}

// ---------------------------------------------------------------------------
// Guest-driven self-modifying code (dynamic-linking idiom)
// ---------------------------------------------------------------------------

// The program patches the immediate of an instruction inside answer() (the
// jump-table-rewrite idiom the paper cites for dynamic linking), calls
// __icache_inval per the decreed contract, and observes the new behaviour.
// Under the softcache, the CC pushes the rewritten text to the MC and drops
// the stale blocks; natively the patch takes effect directly. Both must
// agree.
constexpr const char* kSelfModifyingProgram = R"(
  int answer() { return 1011; }
  int main() {
    int before = answer();
    /* find the instruction carrying the constant 1011 and rewrite it */
    int *code = (int*)answer;
    int patched = 0;
    for (int i = 0; i < 32; i++) {
      if ((code[i] & 0xffff) == 1011) {
        code[i] = (int)((uint)code[i] & 0xffff0000) | 2022;
        patched = 1;
        break;
      }
    }
    if (!patched) return 1;
    __icache_inval((int)code, 128);
    int after = answer();
    if (before != 1011) return 2;
    if (after != 2022) return 3;
    print_str("smc ok\n");
    return 0;
  }
)";

TEST(SoftCacheSelfModify, GuestPatchTakesEffect) {
  ExpectEquivalent(kSelfModifyingProgram, SparcConfig(32 * 1024));
  ExpectEquivalent(kSelfModifyingProgram, ArmConfig(32 * 1024));
}

TEST(SoftCacheSelfModify, WorksUnderEvictionPressure) {
  ExpectEquivalent(kSelfModifyingProgram, SparcConfig(1024));
  ExpectEquivalent(kSelfModifyingProgram, TraceConfig(2048, 4));
}

TEST(SoftCacheSelfModify, TextWriteReachesTheServer) {
  const image::Image img = Compile(kSelfModifyingProgram);
  SoftCacheSystem system(img, SparcConfig(32 * 1024));
  const vm::RunResult result = system.Run(10'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_EQ(result.exit_code, 0);
  // The MC's text copy now differs from the original image at the patch.
  const image::Symbol* fn = img.FindSymbol("answer");
  ASSERT_NE(fn, nullptr);
  bool diff = false;
  for (uint32_t a = fn->addr; a < fn->addr + fn->size; a += 4) {
    if (system.mc().session(0).text_view().TextWord(a) != img.TextWord(a)) {
      diff = true;
    }
  }
  EXPECT_TRUE(diff);
  system.cc().CheckInvariants();
}

// ---------------------------------------------------------------------------
// Fleet: multiple clients sharing one memory controller (paper Figure 1)
// ---------------------------------------------------------------------------

TEST(SoftCacheDump, StateDumpIsComprehensive) {
  const image::Image img = Compile(kCallChainProgram);
  SoftCacheSystem system(img, SparcConfig(32 * 1024));
  ASSERT_EQ(system.Run(100'000'000).reason, vm::StopReason::kHalted);
  const std::string dump = system.cc().DumpState();
  EXPECT_NE(dump.find("=== tcache state ==="), std::string::npos);
  EXPECT_NE(dump.find("block#"), std::string::npos);
  EXPECT_NE(dump.find("LINKED"), std::string::npos);
  EXPECT_NE(dump.find("stubs:"), std::string::npos);
  // One line per resident block.
  size_t block_lines = 0;
  for (size_t pos = dump.find("block#"); pos != std::string::npos;
       pos = dump.find("block#", pos + 1)) {
    ++block_lines;
  }
  EXPECT_EQ(block_lines, system.cc().ResidentBlocks());
}

TEST(SoftCacheFleet, ClientsSharingOneServerStayIndependent) {
  const image::Image img = Compile(kIoProgram);
  softcache::MultiClientConfig config;
  config.clients = 3;
  config.base = SparcConfig(2048);
  // Interleave in small slices to stress server sharing mid-translation.
  config.quantum_instructions = 500;
  const std::string inputs[] = {"alpha one", "BETA two!", "gamma 333"};
  softcache::MultiClientSystem fleet(img, config);
  for (size_t i = 0; i < 3; ++i) fleet.SetInput(i, inputs[i]);
  const std::vector<vm::RunResult> results = fleet.RunAll();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
        << results[i].fault_message;
    std::string native_out;
    const vm::RunResult native =
        softcache::RunNative(img, inputs[i], &native_out);
    ASSERT_EQ(native.reason, vm::StopReason::kHalted);
    EXPECT_EQ(fleet.OutputString(i), native_out) << i;
    fleet.cc(i).CheckInvariants();
  }
  // The shared server saw every client's requests.
  EXPECT_GE(fleet.mc().server().stats().requests_served,
            3 * fleet.cc(0).stats().blocks_translated);
}

// ---------------------------------------------------------------------------
// Chunker unit tests
// ---------------------------------------------------------------------------

TEST(Chunker, BasicBlockEndsAtBranch) {
  const image::Image img = Compile(kLoopProgram);
  auto chunk = softcache::ChunkBasicBlock(img, img.entry, 64);
  ASSERT_TRUE(chunk.ok()) << chunk.error().ToString();
  EXPECT_EQ(chunk->orig_addr, img.entry);
  EXPECT_GT(chunk->words.size(), 0u);
  EXPECT_NE(chunk->exit, softcache::ExitKind::kNone);
}

TEST(Chunker, ProcedureChunkCoversWholeFunction) {
  const image::Image img = Compile(kFibProgram);
  const image::Symbol* fib = img.FindSymbol("fib");
  ASSERT_NE(fib, nullptr);
  // Request an interior address; the chunk must still cover the whole
  // procedure with the right entry offset.
  auto chunk = softcache::ChunkProcedure(img, fib->addr + 8);
  ASSERT_TRUE(chunk.ok()) << chunk.error().ToString();
  EXPECT_EQ(chunk->orig_addr, fib->addr);
  EXPECT_EQ(chunk->words.size(), fib->size / 4);
  EXPECT_EQ(chunk->entry_word, 2u);
}

TEST(Chunker, TraceModeSpansBranches) {
  const image::Image img = Compile(kLoopProgram);
  // Find a block that ends at a conditional branch under plain chunking.
  auto plain = softcache::ChunkBasicBlock(img, img.entry, 64, 1);
  ASSERT_TRUE(plain.ok());
  auto traced = softcache::ChunkBasicBlock(img, img.entry, 64, 8);
  ASSERT_TRUE(traced.ok());
  // The trace is at least as long and contains the plain block as a prefix.
  ASSERT_GE(traced->words.size(), plain->words.size());
  for (size_t i = 0; i + 1 < plain->words.size(); ++i) {
    EXPECT_EQ(traced->words[i], plain->words[i]) << i;
  }
  // Mid-chunk conditional branches exist iff the trace actually grew.
  if (traced->words.size() > plain->words.size()) {
    int mid_branches = 0;
    for (size_t i = 0; i + 1 < traced->words.size(); ++i) {
      if (isa::IsConditionalBranch(isa::Decode(traced->words[i]).op)) {
        ++mid_branches;
      }
    }
    EXPECT_GT(mid_branches, 0);
  }
}

TEST(Chunker, TraceModeRespectsInstructionCap) {
  const image::Image img = Compile(kLoopProgram);
  auto traced = softcache::ChunkBasicBlock(img, img.entry, 6, 100);
  ASSERT_TRUE(traced.ok());
  EXPECT_LE(traced->words.size(), 6u);
}

TEST(Chunker, FetchObserverCountsMatchInstructions) {
  // Sanity for every probe-based figure: a fetch observer sees exactly one
  // event per retired instruction.
  const image::Image img = Compile(kLoopProgram);
  struct Counter : vm::FetchObserver {
    uint64_t count = 0;
    void OnFetch(uint32_t) override { ++count; }
  };
  vm::Machine machine;
  machine.LoadImage(img);
  Counter counter;
  machine.set_fetch_observer(&counter);
  const vm::RunResult result = machine.Run(10'000'000);
  ASSERT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(counter.count, result.instructions);
}

TEST(Chunker, RejectsNonTextAddress) {
  const image::Image img = Compile(kFibProgram);
  EXPECT_FALSE(softcache::ChunkBasicBlock(img, 0x10, 64).ok());
  EXPECT_FALSE(softcache::ChunkProcedure(img, 0x10).ok());
}

// ---------------------------------------------------------------------------
// Protocol unit tests
// ---------------------------------------------------------------------------

TEST(Protocol, RequestRoundTrip) {
  softcache::Request request;
  request.type = softcache::MsgType::kChunkRequest;
  request.seq = 7;
  request.addr = 0x12345;
  request.length = 64;
  const auto bytes = request.Serialize();
  EXPECT_EQ(bytes.size(), softcache::kRequestBytes);
  auto parsed = softcache::Request::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->seq, 7u);
  EXPECT_EQ(parsed->addr, 0x12345u);
  EXPECT_EQ(parsed->length, 64u);
}

TEST(Protocol, ReplyRoundTrip) {
  softcache::Reply reply;
  reply.type = softcache::MsgType::kChunkReply;
  reply.seq = 9;
  reply.addr = 0x10000;
  reply.aux = 0xabcd;
  reply.extra = 0xfeed;
  reply.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto bytes = reply.Serialize();
  EXPECT_EQ(bytes.size(), softcache::kReplyHeaderBytes + 8 +
                              softcache::kReplyTrailerBytes);
  auto parsed = softcache::Reply::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->aux, 0xabcdu);
  EXPECT_EQ(parsed->extra, 0xfeedu);
  EXPECT_EQ(parsed->payload.size(), 8u);
}

TEST(Protocol, CorruptionDetected) {
  softcache::Request request;
  request.addr = 0x8000;
  auto bytes = request.Serialize();
  bytes[13] ^= 0xff;
  EXPECT_FALSE(softcache::Request::Parse(bytes).ok());

  softcache::Reply reply;
  reply.payload = {9, 9, 9, 9};
  auto reply_bytes = reply.Serialize();
  reply_bytes[reply_bytes.size() - 6] ^= 1;  // flip a payload byte
  EXPECT_FALSE(softcache::Reply::Parse(reply_bytes).ok());
}

TEST(Protocol, RequestChecksumCoversPayload) {
  softcache::Request request;
  request.type = softcache::MsgType::kDataWriteback;
  request.seq = 3;
  request.addr = 0x30000;
  request.length = 4;
  request.payload = {1, 2, 3, 4};
  auto bytes = request.Serialize();
  auto parsed = softcache::Request::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->payload, request.payload);
  bytes[softcache::kRequestBytes + 2] ^= 0x01;  // flip a payload bit
  EXPECT_FALSE(softcache::Request::Parse(bytes).ok());
}

TEST(Protocol, DeclaredLengthMustMatchPayload) {
  softcache::Request request;
  request.type = softcache::MsgType::kTextWrite;
  request.seq = 4;
  request.addr = 0x10000;
  request.payload = {5, 6, 7, 8};
  request.length = 8;  // lies: the payload is 4 bytes
  EXPECT_FALSE(softcache::Request::Parse(request.Serialize()).ok());
  request.length = 4;
  EXPECT_TRUE(softcache::Request::Parse(request.Serialize()).ok());
}

TEST(Protocol, NonWriteRequestsRejectStrayPayload) {
  softcache::Request request;
  request.type = softcache::MsgType::kChunkRequest;
  request.seq = 5;
  request.addr = 0x10000;
  request.length = 64;
  request.payload = {1};
  EXPECT_FALSE(softcache::Request::Parse(request.Serialize()).ok());
}

TEST(Protocol, CorruptedTextWriteRejectedByMc) {
  // End to end: a corrupted write frame reaching the MC is refused with a
  // kError reply (seq 0, reserved for unparseable requests) and the server
  // text stays untouched.
  const image::Image img = Compile(kFibProgram);
  softcache::MemoryController mc(img, Style::kSparc, 64);
  softcache::Request request;
  request.type = softcache::MsgType::kTextWrite;
  request.seq = 11;
  request.addr = img.text_base;
  request.length = 4;
  request.payload = {0xaa, 0xbb, 0xcc, 0xdd};
  auto frame = request.Serialize();
  frame[softcache::kRequestBytes + 1] ^= 0x10;  // corrupt the payload
  auto reply = softcache::Reply::Parse(mc.Handle(frame));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, softcache::MsgType::kError);
  EXPECT_EQ(reply->seq, 0u);
  EXPECT_EQ(mc.session(0).text_view().text, img.text);
}

TEST(Protocol, PerChunkOverheadIs60Bytes) {
  // The constant the paper reports for the ARM prototype.
  EXPECT_EQ(softcache::kPerChunkOverheadBytes, 60u);
}

}  // namespace
}  // namespace sc
