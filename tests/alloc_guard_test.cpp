// Allocation guard for the tcache miss path. This executable replaces the
// global operator new and operator delete with counting versions, runs the
// 1 KB-tcache adpcm_enc shape (every block misses again soon after it is
// evicted) past its warm-up, and fails when the cache controller, the link
// and the memory controller together make more than three heap allocations
// per miss. A memo-hit miss serializes one reply frame; everything else on
// the path reuses storage that warm-up sized.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "softcache/system.h"
#include "workloads/workloads.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new[](std::size_t bytes) { return CountedAlloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sc {
namespace {

constexpr double kMaxAllocationsPerMiss = 3.0;

void ExpectCheapMisses(vm::Engine engine) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  softcache::SoftCacheConfig config;
  config.tcache_bytes = 1024;
  softcache::SoftCacheSystem system(img, config);
  system.machine().set_engine(engine);
  system.SetInput(workloads::MakeInput("adpcm_enc", 1));

  // Warm-up: the memo fills, and the slab, stub table and install buffers
  // reach their working sizes.
  ASSERT_EQ(system.Run(300'000).reason, vm::StopReason::kInstrLimit);
  const uint64_t misses_before = system.stats().blocks_translated;
  const uint64_t allocations_before = g_allocations.load();
  const vm::RunResult result = system.Run(1'000'000);
  const uint64_t allocations = g_allocations.load() - allocations_before;
  const uint64_t misses = system.stats().blocks_translated - misses_before;
  ASSERT_EQ(result.reason, vm::StopReason::kInstrLimit)
      << result.fault_message;
  ASSERT_GT(misses, 10'000u);
  const double per_miss =
      static_cast<double>(allocations) / static_cast<double>(misses);
  ::testing::Test::RecordProperty("allocations_per_miss",
                                  std::to_string(per_miss));
  EXPECT_LE(per_miss, kMaxAllocationsPerMiss)
      << allocations << " allocations over " << misses << " misses";
}

TEST(AllocGuard, MissPathAllocatesLittleInterpreted) {
  ExpectCheapMisses(vm::Engine::kInterp);
}

TEST(AllocGuard, MissPathAllocatesLittleThreaded) {
  ExpectCheapMisses(vm::Engine::kThreaded);
}

}  // namespace
}  // namespace sc
