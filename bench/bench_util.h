// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench_* binary regenerates one table or figure from the paper,
// printing rows/series in the same shape the paper reports. Everything is
// deterministic: fixed seeds, fixed cycle model, no wall-clock anywhere.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "profile/profiler.h"
#include "softcache/system.h"
#include "util/check.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace sc::bench {

struct NativeRun {
  vm::RunResult result;
  std::string output;
};

// Runs a workload natively (optionally with a fetch observer attached).
inline NativeRun RunNativeWorkload(const image::Image& img,
                                   const std::vector<uint8_t>& input,
                                   vm::FetchObserver* observer = nullptr) {
  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(input);
  if (observer != nullptr) machine.set_fetch_observer(observer);
  NativeRun run;
  run.result = machine.Run(8'000'000'000ull);
  SC_CHECK(run.result.reason == vm::StopReason::kHalted)
      << "native run failed: " << run.result.fault_message;
  run.output = machine.OutputString();
  return run;
}

struct CachedRun {
  vm::RunResult result;
  softcache::SoftCacheStats stats;
  net::ChannelStats net;
  size_t resident_blocks = 0;
  uint64_t live_bytes = 0;
  uint64_t mc_restarts = 0;  // server crashes survived (crash injection)
  std::string output;
};

// Runs a workload under the software cache.
inline CachedRun RunCachedWorkload(const image::Image& img,
                                   const std::vector<uint8_t>& input,
                                   const softcache::SoftCacheConfig& config) {
  softcache::SoftCacheSystem system(img, config);
  system.SetInput(input);
  CachedRun run;
  run.result = system.Run(16'000'000'000ull);
  SC_CHECK(run.result.reason == vm::StopReason::kHalted)
      << "softcache run failed: " << run.result.fault_message;
  if (config.fault.crash_enabled()) {
    // A crash after the CC's last RPC must still replay the journal so the
    // MC's image matches; the barrier is part of the measured run.
    SC_CHECK(system.cc().SyncSession()) << "session failed to synchronize";
  }
  run.stats = system.stats();
  run.net = system.channel().stats();
  run.resident_blocks = system.cc().ResidentBlocks();
  run.live_bytes = system.cc().live_tcache_bytes();
  run.mc_restarts = system.mc().server().stats().restarts;
  run.output = system.machine().OutputString();
  return run;
}

// ---- table formatting ----

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("  reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// An ASCII bar for figure-like output, scaled to `width` at `full`.
inline std::string Bar(double value, double full, int width = 40) {
  int n = static_cast<int>(value / full * width);
  if (n < 0) n = 0;
  if (n > width) n = width;
  return std::string(static_cast<size_t>(n), '#');
}

}  // namespace sc::bench
