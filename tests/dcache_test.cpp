// Software D-cache tests (the paper's Section 3 design): equivalence with
// direct execution, slow-hit guarantee, prediction behaviour, write-back
// coherence with the server, and the stack cache under deep recursion.
#include <gtest/gtest.h>

#include "dcache/dcache.h"
#include "minicc/compiler.h"
#include "net/channel.h"
#include "softcache/mc.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "vm/machine.h"

namespace sc {
namespace {

using dcache::DataCache;
using dcache::DCacheConfig;
using dcache::Prediction;

image::Image Compile(std::string_view source) {
  auto img = minicc::CompileMiniC(source);
  SC_CHECK(img.ok()) << img.error().ToString();
  return std::move(*img);
}

struct DcacheRun {
  vm::RunResult result;
  std::string output;
  dcache::DCacheStats stats;
  // MC view after flush: data + bss + a 64 KB heap span.
  std::vector<uint8_t> server_data;
  uint32_t server_data_base = 0;
};

DcacheRun RunWithDcache(const image::Image& img, const DCacheConfig& config,
                        const std::string& input = "") {
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(std::vector<uint8_t>(input.begin(), input.end()));
  softcache::MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  DataCache cache(machine, mc, channel, config);
  cache.Attach();
  DcacheRun run;
  run.result = machine.Run(2'000'000'000);
  cache.FlushAll();
  run.output = machine.OutputString();
  run.stats = cache.stats();
  run.server_data_base = img.data_base;
  for (uint32_t addr = img.data_base; addr < img.heap_base() + 64 * 1024;
       ++addr) {
    run.server_data.push_back(testing::McDataByte(mc, addr));
  }
  return run;
}

// Runs with and without the D-cache; exit code, output, and the final data
// segment (globals + bss + heap) must match exactly.
void ExpectDcacheEquivalent(std::string_view source, const DCacheConfig& config,
                            const std::string& input = "") {
  const image::Image img = Compile(source);

  vm::Machine native;
  native.LoadImage(img);
  native.SetInput(std::vector<uint8_t>(input.begin(), input.end()));
  const vm::RunResult native_result = native.Run(2'000'000'000);
  ASSERT_EQ(native_result.reason, vm::StopReason::kHalted)
      << native_result.fault_message;

  const DcacheRun cached = RunWithDcache(img, config, input);
  EXPECT_EQ(cached.result.reason, vm::StopReason::kHalted)
      << cached.result.fault_message;
  EXPECT_EQ(cached.result.exit_code, native_result.exit_code);
  EXPECT_EQ(cached.output, native.OutputString());

  // Compare the flushed server memory against native machine memory over
  // data + bss + heap (the stack holds dead values and is excluded).
  const uint32_t lo = img.data_base;
  const uint32_t hi = img.heap_base() + 64 * 1024;  // data + modest heap span
  for (uint32_t addr = lo; addr < hi; ++addr) {
    const uint8_t server = cached.server_data[addr - cached.server_data_base];
    const uint8_t direct = *(native.mem_data() + addr);
    ASSERT_EQ(server, direct) << "data divergence at 0x" << std::hex << addr;
  }
}

constexpr const char* kArraySumProgram = R"(
  int table[2048];
  int main() {
    for (int i = 0; i < 2048; i++) table[i] = i * 3 + 1;
    int sum = 0;
    for (int pass = 0; pass < 4; pass++)
      for (int i = 0; i < 2048; i++) sum += table[i];
    return sum % 251;
  }
)";

constexpr const char* kPointerChaseProgram = R"(
  int next_idx[1024];
  int main() {
    /* permutation walk: adversarial for prediction */
    for (int i = 0; i < 1024; i++) next_idx[i] = (i * 419 + 7) % 1024;
    int pos = 0;
    int count = 0;
    for (int step = 0; step < 8000; step++) {
      pos = next_idx[pos];
      count += pos & 1;
    }
    return count % 251;
  }
)";

constexpr const char* kGlobalScalarProgram = R"(
  int counter = 0;
  int limit = 5000;
  int step_size = 3;
  int main() {
    while (counter < limit) counter += step_size;
    return counter % 251;
  }
)";

constexpr const char* kRecursionProgram = R"(
  int deep(int n, int salt) {
    int local[16];
    for (int i = 0; i < 16; i++) local[i] = n * i + salt;
    if (n == 0) return local[5];
    return deep(n - 1, local[3] % 100) + local[7] % 3;
  }
  int main() { return deep(200, 1) % 251; }
)";

constexpr const char* kHeapProgram = R"(
  int main() {
    int *a = (int*)malloc(4000);
    int *b = (int*)malloc(4000);
    for (int i = 0; i < 1000; i++) { a[i] = i; b[i] = 2 * i; }
    int sum = 0;
    for (int i = 0; i < 1000; i++) sum += a[i] + b[i];
    free((char*)a);
    free((char*)b);
    return sum % 251;
  }
)";

TEST(DcacheEquivalence, ArraySums) {
  ExpectDcacheEquivalent(kArraySumProgram, DCacheConfig{});
}

TEST(DcacheEquivalence, PointerChase) {
  ExpectDcacheEquivalent(kPointerChaseProgram, DCacheConfig{});
}

TEST(DcacheEquivalence, GlobalScalars) {
  ExpectDcacheEquivalent(kGlobalScalarProgram, DCacheConfig{});
}

TEST(DcacheEquivalence, DeepRecursionStackCache) {
  DCacheConfig config;
  config.scache_bytes = 1024;  // much smaller than 200 frames
  ExpectDcacheEquivalent(kRecursionProgram, config);
}

TEST(DcacheEquivalence, HeapAllocation) {
  ExpectDcacheEquivalent(kHeapProgram, DCacheConfig{});
}

TEST(DcacheEquivalence, TinyDcacheThrashes) {
  DCacheConfig config;
  config.dcache_blocks = 4;
  config.block_bytes = 16;
  ExpectDcacheEquivalent(kArraySumProgram, config);
}

TEST(DcacheEquivalence, EveryPredictionPolicy) {
  for (const Prediction pred :
       {Prediction::kNone, Prediction::kLastIndex, Prediction::kStride,
        Prediction::kSecondChance}) {
    DCacheConfig config;
    config.prediction = pred;
    ExpectDcacheEquivalent(kPointerChaseProgram, config);
  }
}

TEST(DcacheEquivalence, IoThroughHook) {
  DCacheConfig config;
  ExpectDcacheEquivalent(R"(
    int main() {
      char buf[64];
      int n = read_bytes(buf, 64);
      int sum = 0;
      for (int i = 0; i < n; i++) sum += (int)buf[i];
      write_bytes(buf, n);
      return sum % 251;
    }
  )", config, "hello dcache world");
}


TEST(DcacheEquivalence, WriteThroughPolicy) {
  DCacheConfig config;
  config.write_through = true;
  ExpectDcacheEquivalent(kArraySumProgram, config);
  ExpectDcacheEquivalent(kHeapProgram, config);
}

TEST(DcacheBehaviour, WriteThroughPushesEveryStoreBlock) {
  const image::Image img = Compile(kGlobalScalarProgram);
  DCacheConfig config;
  config.write_through = true;
  config.pin_scalar_globals = false;  // force stores through the dcache
  const DcacheRun run = RunWithDcache(img, config);
  ASSERT_EQ(run.result.reason, vm::StopReason::kHalted);
  EXPECT_GT(run.stats.write_throughs, 1000u);
  // Every committed write-through is a writeback message.
  EXPECT_GE(run.stats.writebacks, run.stats.write_throughs - 1);
}

TEST(DcacheBehaviour, BankConflictsTracked) {
  const image::Image img = Compile(kArraySumProgram);
  DCacheConfig banked;
  banked.banks = 4;
  const DcacheRun with_banks = RunWithDcache(img, banked);
  ASSERT_EQ(with_banks.result.reason, vm::StopReason::kHalted);
  EXPECT_GT(with_banks.stats.accesses, 0u);
  EXPECT_GT(with_banks.stats.bank_conflicts, 0u);
  EXPECT_LT(with_banks.stats.bank_conflicts, with_banks.stats.accesses);
  // More banks can only reduce (or equal) conflicts.
  DCacheConfig wide = banked;
  wide.banks = 8;
  const DcacheRun more_banks = RunWithDcache(img, wide);
  EXPECT_LE(more_banks.stats.bank_conflicts, with_banks.stats.bank_conflicts);
  DCacheConfig single;
  single.banks = 1;
  const DcacheRun no_banks = RunWithDcache(img, single);
  EXPECT_EQ(no_banks.stats.bank_conflicts, 0u);  // tracking disabled at 1 bank
}

TEST(DcacheBehaviour, SequentialScanPredictsWell) {
  const image::Image img = Compile(kArraySumProgram);
  DCacheConfig config;
  config.prediction = Prediction::kStride;
  const DcacheRun run = RunWithDcache(img, config);
  ASSERT_EQ(run.result.reason, vm::StopReason::kHalted);
  // Sequential scans with stride prediction: prediction hit rate is high.
  EXPECT_GT(run.stats.prediction_probes, 0u);
  const double acc = static_cast<double>(run.stats.prediction_hits) /
                     static_cast<double>(run.stats.prediction_probes);
  EXPECT_GT(acc, 0.5);
}

TEST(DcacheBehaviour, SlowHitsWhenPredictionDisabled) {
  const image::Image img = Compile(kArraySumProgram);
  DCacheConfig config;
  config.prediction = Prediction::kNone;
  const DcacheRun run = RunWithDcache(img, config);
  ASSERT_EQ(run.result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(run.stats.fast_hits, 0u);
  EXPECT_GT(run.stats.slow_hits, 0u);
}

TEST(DcacheBehaviour, PinnedScalarsBypassTagChecks) {
  const image::Image img = Compile(kGlobalScalarProgram);
  DCacheConfig with_pin;
  with_pin.pin_scalar_globals = true;
  const DcacheRun pinned = RunWithDcache(img, with_pin);
  DCacheConfig no_pin;
  no_pin.pin_scalar_globals = false;
  const DcacheRun unpinned = RunWithDcache(img, no_pin);
  ASSERT_EQ(pinned.result.reason, vm::StopReason::kHalted);
  ASSERT_EQ(unpinned.result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(pinned.result.exit_code, unpinned.result.exit_code);
  // The pinned run resolves the hot scalars without any cache machinery.
  EXPECT_GT(pinned.stats.pinned_hits, 1000u);
  EXPECT_LT(pinned.stats.cycles, unpinned.stats.cycles);
}

TEST(DcacheBehaviour, WritebacksReachTheServer) {
  const image::Image img = Compile(kArraySumProgram);
  DCacheConfig config;
  config.dcache_blocks = 8;  // force capacity write-backs mid-run
  const DcacheRun run = RunWithDcache(img, config);
  ASSERT_EQ(run.result.reason, vm::StopReason::kHalted);
  EXPECT_GT(run.stats.writebacks, 0u);
  // Spot-check a value on the server.
  const image::Symbol* table = img.FindSymbol("table");
  ASSERT_NE(table, nullptr);
  const uint32_t off = table->addr - run.server_data_base;
  const uint32_t v = static_cast<uint32_t>(run.server_data[off + 40]) |
                     static_cast<uint32_t>(run.server_data[off + 41]) << 8 |
                     static_cast<uint32_t>(run.server_data[off + 42]) << 16 |
                     static_cast<uint32_t>(run.server_data[off + 43]) << 24;
  EXPECT_EQ(v, 10u * 3 + 1);
}

#ifdef __linux__
TEST(DcacheBehaviour, WritebackTouchesOnlyGuestPagesInUse) {
  // Guest memory is lazy zero pages; capacity write-backs and the final
  // FlushAll move only the D-cache's slots, never whole guest memory.
  const image::Image img = Compile(kArraySumProgram);
  vm::Machine machine;
  machine.LoadImage(img);
  softcache::MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  DCacheConfig config;
  config.dcache_blocks = 8;  // force capacity write-backs mid-run
  DataCache cache(machine, mc, channel, config);
  cache.Attach();
  ASSERT_EQ(machine.Run(2'000'000'000).reason, vm::StopReason::kHalted);
  cache.FlushAll();
  EXPECT_GT(cache.stats().writebacks, 0u);
  const size_t touched = testing::ResidentGuestPages(machine);
  EXPECT_LE(touched, 32u) << "of 4608 guest pages";
}
#endif

TEST(DcacheBehaviour, GuaranteedLatencyIsTheSlowHitBound) {
  const image::Image img = Compile(kArraySumProgram);
  vm::Machine machine;
  machine.LoadImage(img);
  softcache::MemoryController mc(img, softcache::Style::kSparc, 64);
  net::Channel channel;
  DCacheConfig config;
  config.dcache_blocks = 64;
  DataCache cache(machine, mc, channel, config);
  // 64 blocks -> 6 search steps.
  EXPECT_EQ(cache.GuaranteedLatencyCycles(),
            config.slow_hit_base_cycles + 6 * config.slow_hit_step_cycles);
}

TEST(DcacheBehaviour, StackCacheSpillsOnDeepRecursion) {
  const image::Image img = Compile(kRecursionProgram);
  DCacheConfig config;
  config.scache_bytes = 1024;
  const DcacheRun run = RunWithDcache(img, config);
  ASSERT_EQ(run.result.reason, vm::StopReason::kHalted);
  EXPECT_GT(run.stats.scache_spills, 0u);
  EXPECT_GT(run.stats.scache_fills, run.stats.scache_spills / 2);
}

TEST(DcacheBehaviour, LargeScacheAvoidsSpills) {
  const image::Image img = Compile(R"(
    int shallow(int n) { return n <= 0 ? 0 : shallow(n - 1) + n; }
    int main() { int s = 0; for (int i = 0; i < 50; i++) s += shallow(8); return s % 251; }
  )");
  DCacheConfig config;
  config.scache_bytes = 8192;
  const DcacheRun run = RunWithDcache(img, config);
  ASSERT_EQ(run.result.reason, vm::StopReason::kHalted);
  // The whole (shallow) stack fits: no spill traffic in steady state.
  EXPECT_EQ(run.stats.scache_spills, 0u);
}

}  // namespace
}  // namespace sc
