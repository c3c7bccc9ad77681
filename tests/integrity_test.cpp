// Self-healing cache tests: seeded memory-fault injection, digest
// verify-on-use, the background scrub, and transparent healing.
//
// The headline property mirrors the repo's engine-differential proof: under
// a seeded bit-flip storm the guest-visible run (exit code, instruction
// count, cycle count, output bytes, fault message) is IDENTICAL on
// {interpreter, threaded} x {one host thread, several}, the guest OUTPUT is
// identical to a fault-free run, and no corrupted instruction is ever
// executed — corruption shows up only as heal counters and extra miss
// traffic, never as changed guest behavior. The fleet scheduler has one
// integrity rule at every thread count: each tick runs in the client's
// trace lane, and every client scrub pass also scrubs the server memo.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "minicc/compiler.h"
#include "obs/trace_mux.h"
#include "softcache/cc.h"
#include "softcache/inspector.h"
#include "softcache/integrity.h"
#include "softcache/mc.h"
#include "softcache/protocol.h"
#include "softcache/system.h"
#include "tests/testing.h"
#include "util/check.h"
#include "vm/machine.h"

namespace sc {
namespace {

using softcache::FaultDomain;
using softcache::IntegrityConfig;
using softcache::MemFaultConfig;
using softcache::MemFaultInjector;
using softcache::MultiClientConfig;
using softcache::MultiClientSystem;
using softcache::SoftCacheConfig;
using softcache::SoftCacheSystem;
using vm::Engine;

// A program with enough distinct blocks, calls and churn to keep the tcache
// interesting for a few hundred scheduler quanta, emitting output whose
// bytes depend on every iteration (any corrupted instruction that executes
// shows up in the digest-like output stream).
constexpr const char* kStormProgram = R"(
  int a[512];
  int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
  int mix(int x) { return (x * 37 + 11) % 251; }
  int main() {
    int h = 0;
    for (int round = 0; round < 8; round = round + 1) {
      for (int i = 0; i < 512; i = i + 1) { a[i] = mix(a[i] + i + round); }
      for (int i = 0; i < 512; i = i + 1) { h = (h * 31 + a[i]) % 65521; }
      h = (h + fib(11)) % 65521;
      putchar(65 + h % 26);
    }
    return h % 200;
  }
)";

image::Image StormImage() {
  auto img = minicc::CompileMiniC(kStormProgram);
  SC_CHECK(img.ok()) << img.error().ToString();
  return std::move(*img);
}

// A small tcache forces eviction churn, so quarantined chunks really travel
// the full miss path again rather than sitting in a warm cache.
SoftCacheConfig StormConfig() {
  SoftCacheConfig config;
  config.tcache_bytes = 6 * 1024;
  config.integrity.enabled = true;
  config.integrity.scrub_every = 4;
  return config;
}

MemFaultConfig Storm(uint64_t seed, double rate) {
  MemFaultConfig mf;
  mf.seed = seed;
  mf.rate = rate;
  return mf;
}

struct StormRun {
  vm::RunResult result;
  std::string output;
  softcache::IntegrityStats integrity;
};

StormRun RunSolo(const image::Image& img, const SoftCacheConfig& config,
                 Engine engine,
                 const softcache::McServerConfig& server = {}) {
  SoftCacheSystem system(img, config, server);
  system.machine().set_engine(engine);
  StormRun run;
  run.result = system.Run();
  run.output = system.OutputString();
  run.integrity = system.stats().integrity;
  if (run.result.reason == vm::StopReason::kHalted) {
    system.cc().CheckInvariants();
  }
  return run;
}

void ExpectRunsIdentical(const StormRun& a, const StormRun& b,
                         const std::string& what) {
  EXPECT_EQ(static_cast<int>(a.result.reason),
            static_cast<int>(b.result.reason))
      << what;
  EXPECT_EQ(a.result.exit_code, b.result.exit_code) << what;
  EXPECT_EQ(a.result.instructions, b.result.instructions) << what;
  EXPECT_EQ(a.result.cycles, b.result.cycles) << what;
  EXPECT_EQ(a.result.fault_message, b.result.fault_message) << what;
  EXPECT_EQ(a.output, b.output) << what;
}

// ---------------------------------------------------------------------------
// The injector schedule: deterministic, per-domain independent streams
// ---------------------------------------------------------------------------

TEST(MemFaultInjector, ScheduleIsDeterministic) {
  const MemFaultConfig config = Storm(/*seed=*/42, /*rate=*/0.25);
  MemFaultInjector a(config, FaultDomain::kTcache);
  MemFaultInjector b(config, FaultDomain::kTcache);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.Due(nullptr), b.Due(nullptr)) << "tick " << i;
  }
  EXPECT_EQ(a.rng().Next64(), b.rng().Next64());
}

TEST(MemFaultInjector, DomainsDrawIndependentStreams) {
  const MemFaultConfig config = Storm(/*seed=*/42, /*rate=*/0.5);
  MemFaultInjector tcache(config, FaultDomain::kTcache);
  MemFaultInjector memo(config, FaultDomain::kMemo);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (tcache.Due(nullptr) != memo.Due(nullptr)) ++differing;
  }
  // Same seed, different domain salt: the streams must not be the same
  // stream (identical streams would make enabling one domain replay the
  // other's schedule).
  EXPECT_GT(differing, 0);
}

TEST(MemFaultInjector, PeriodAndAfterKnobsFire) {
  MemFaultConfig periodic;
  periodic.period = 3;
  MemFaultInjector p(periodic, FaultDomain::kStaged);
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (p.Due(nullptr)) ++fired;
  }
  EXPECT_EQ(fired, 3);

  MemFaultConfig once;
  once.after = 5;
  MemFaultInjector o(once, FaultDomain::kStaged);
  fired = 0;
  for (int i = 0; i < 20; ++i) {
    if (o.Due(nullptr)) ++fired;
  }
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Solo storms: healed runs match clean runs byte-for-byte in output
// ---------------------------------------------------------------------------

TEST(Integrity, SoloInterpStormHealsTransparently) {
  const image::Image img = StormImage();
  const SoftCacheConfig clean_config = StormConfig();
  const StormRun clean = RunSolo(img, clean_config, Engine::kInterp);
  ASSERT_EQ(clean.result.reason, vm::StopReason::kHalted)
      << clean.result.fault_message;
  EXPECT_EQ(clean.integrity.flips_injected, 0u);
  EXPECT_EQ(clean.integrity.corruptions_detected, 0u);
  EXPECT_GT(clean.integrity.scrubs, 0u);  // integrity on => scrub runs

  SoftCacheConfig storm_config = StormConfig();
  storm_config.integrity.memfault = Storm(/*seed=*/7, /*rate=*/0.3);
  const StormRun storm = RunSolo(img, storm_config, Engine::kInterp);

  // Transparent healing: the guest's story is unchanged where it matters.
  EXPECT_EQ(storm.result.reason, vm::StopReason::kHalted)
      << storm.result.fault_message;
  EXPECT_EQ(storm.result.exit_code, clean.result.exit_code);
  EXPECT_EQ(storm.output, clean.output);

  // ... and the storm really happened: flips landed, every one was caught
  // before use, and quarantined chunks were reinstalled clean.
  EXPECT_GT(storm.integrity.flips_injected, 0u);
  EXPECT_GT(storm.integrity.corruptions_detected, 0u);
  EXPECT_GT(storm.integrity.quarantines, 0u);
  EXPECT_GT(storm.integrity.heals, 0u);
  EXPECT_EQ(storm.integrity.heal_failures, 0u);
}

TEST(Integrity, SoloStormIsSeedDeterministic) {
  const image::Image img = StormImage();
  SoftCacheConfig config = StormConfig();
  config.integrity.memfault = Storm(/*seed=*/11, /*rate=*/0.2);
  const StormRun a = RunSolo(img, config, Engine::kInterp);
  const StormRun b = RunSolo(img, config, Engine::kInterp);
  ExpectRunsIdentical(a, b, "same seed, same storm");
  EXPECT_EQ(a.integrity.flips_injected, b.integrity.flips_injected);
  EXPECT_EQ(a.integrity.quarantines, b.integrity.quarantines);
  EXPECT_GT(a.integrity.heals, 0u);
}

TEST(Integrity, StormBitIdenticalAcrossEngines) {
  const image::Image img = StormImage();
  SoftCacheConfig config = StormConfig();
  config.integrity.memfault = Storm(/*seed=*/13, /*rate=*/0.25);
  const StormRun interp = RunSolo(img, config, Engine::kInterp);
  const StormRun threaded = RunSolo(img, config, Engine::kThreaded);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  ExpectRunsIdentical(interp, threaded, "interp vs threaded under storm");

  // A fleet whose scheduler quantum differs from the integrity quantum
  // still ticks on the integrity quantum: the same tick stream as solo.
  MultiClientConfig mismatched;
  mismatched.base = config;
  mismatched.quantum_instructions = 4 * config.integrity.quantum_instructions;
  MultiClientSystem fleet(img, mismatched);
  fleet.machine(0).set_engine(Engine::kInterp);
  StormRun fleet_run;
  fleet_run.result = fleet.RunAll()[0];
  fleet_run.output = fleet.OutputString(0);
  ExpectRunsIdentical(interp, fleet_run, "solo vs mismatched-quantum fleet");
  EXPECT_EQ(fleet.cc(0).stats().integrity.ticks, interp.integrity.ticks);
  EXPECT_GT(interp.integrity.heals, 0u);
  EXPECT_GT(threaded.integrity.heals, 0u);
  // The threaded engine's extra fault surface (decoded superblocks) was
  // exercised: its scrub invalidated at least one corrupted superblock.
  EXPECT_GT(threaded.integrity.sb_drops, 0u);
}

// ---------------------------------------------------------------------------
// The four-combo identity: engines x host thread counts under one storm seed
// ---------------------------------------------------------------------------

TEST(Integrity, StormIdenticalAcrossEnginesAndSchedulers) {
  const image::Image img = StormImage();
  MultiClientConfig config;
  config.clients = 4;
  config.base = StormConfig();
  config.base.integrity.memfault = Storm(/*seed=*/23, /*rate=*/0.2);
  // Server memo faults ride along: heal order differs across thread counts,
  // but memo healing is guest-invisible so the identity must still hold.
  config.server.memfault = Storm(/*seed=*/29, /*rate=*/0.05);

  struct Combo {
    Engine engine;
    uint32_t host_threads;
    const char* name;
  };
  const Combo combos[] = {
      {Engine::kInterp, 0, "interp/1-thread"},
      {Engine::kThreaded, 0, "threaded/1-thread"},
      {Engine::kInterp, 3, "interp/3-threads"},
      {Engine::kThreaded, 3, "threaded/3-threads"},
  };

  std::vector<std::vector<StormRun>> per_combo;
  for (const Combo& combo : combos) {
    MultiClientConfig cfg = config;
    cfg.host_threads = combo.host_threads;
    MultiClientSystem fleet(img, cfg);
    for (uint32_t i = 0; i < cfg.clients; ++i) {
      fleet.machine(i).set_engine(combo.engine);
    }
    const auto results = fleet.RunAll();
    ASSERT_EQ(results.size(), cfg.clients) << combo.name;
    std::vector<StormRun> runs;
    for (uint32_t i = 0; i < cfg.clients; ++i) {
      ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
          << combo.name << " client " << i << ": "
          << results[i].fault_message;
      StormRun run;
      run.result = results[i];
      run.output = fleet.OutputString(i);
      run.integrity = fleet.cc(i).stats().integrity;
      EXPECT_GT(run.integrity.heals, 0u) << combo.name << " client " << i;
      runs.push_back(run);
    }
    // Client scrub passes scrub the server memo at every thread count.
    EXPECT_GT(fleet.mc().server().stats().memo_scrubs, 0u) << combo.name;
    per_combo.push_back(std::move(runs));
  }

  // Every combo must tell the same guest story, client by client.
  for (size_t c = 1; c < per_combo.size(); ++c) {
    for (uint32_t i = 0; i < config.clients; ++i) {
      ExpectRunsIdentical(per_combo[0][i], per_combo[c][i],
                          std::string(combos[c].name) + " client " +
                              std::to_string(i) + " vs " + combos[0].name);
    }
  }

  // ... and the same story as a fault-free fleet, in output and exit code
  // (instruction/cycle counts legitimately differ: healed chunks re-trap).
  MultiClientConfig clean_cfg = config;
  clean_cfg.base.integrity.memfault = MemFaultConfig{};
  clean_cfg.server.memfault = MemFaultConfig{};
  MultiClientSystem clean(img, clean_cfg);
  const auto clean_results = clean.RunAll();
  for (uint32_t i = 0; i < config.clients; ++i) {
    EXPECT_EQ(per_combo[0][i].result.exit_code, clean_results[i].exit_code);
    EXPECT_EQ(per_combo[0][i].output, clean.OutputString(i));
  }
}

// Integrity ticks run inside the client's trace lane at every thread count:
// each client lane records one mem_flip instant per injected flip and one
// scrub span per scrub pass.
class IntegrityTrace : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IntegrityTrace, TicksLandInClientLanes) {
  const image::Image img = StormImage();
  MultiClientConfig config;
  config.clients = 4;
  config.base = StormConfig();
  config.base.integrity.memfault = Storm(/*seed=*/23, /*rate=*/0.2);
  config.host_threads = GetParam();
  MultiClientSystem fleet(img, config);
  obs::TraceMux mux;
  fleet.AttachTraceMux(&mux);
  mux.EnableAll(1 << 20);
  const auto results = fleet.RunAll();
  ASSERT_EQ(mux.TotalDropped(), 0u);

  for (const obs::TraceMux::Lane& lane : mux.lanes()) {
    if (lane.pid == 0) continue;  // server shard lanes
    const size_t i = lane.pid - 1;
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted) << "client " << i;
    uint64_t flips = 0;
    uint64_t scrubs = 0;
    for (const obs::TraceEvent& e : lane.tracer.Snapshot()) {
      if (std::strcmp(e.name, "mem_flip") == 0) ++flips;
      if (std::strcmp(e.name, "scrub") == 0 && e.ph == obs::Phase::kBegin) {
        ++scrubs;
      }
    }
    const softcache::IntegrityStats& stats = fleet.cc(i).stats().integrity;
    EXPECT_GT(stats.flips_injected, 0u) << "client " << i;
    EXPECT_EQ(flips, stats.flips_injected) << "client " << i;
    EXPECT_GT(stats.scrubs, 0u) << "client " << i;
    EXPECT_EQ(scrubs, stats.scrubs) << "client " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(HostThreads, IntegrityTrace, ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "host_threads_" +
                                  std::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Per-domain coverage: staged chunks, content store, server memo
// ---------------------------------------------------------------------------

TEST(Integrity, StagedDomainDropsCorruptPrefetches) {
  const image::Image img = StormImage();
  SoftCacheConfig config = StormConfig();
  config.prefetch.policy = softcache::PrefetchPolicy::kNextN;
  const StormRun clean = RunSolo(img, config, Engine::kInterp);
  ASSERT_EQ(clean.result.reason, vm::StopReason::kHalted);

  SoftCacheConfig storm_config = config;
  storm_config.integrity.memfault = Storm(/*seed=*/31, /*rate=*/0.4);
  const StormRun storm = RunSolo(img, storm_config, Engine::kInterp);
  EXPECT_EQ(storm.result.reason, vm::StopReason::kHalted)
      << storm.result.fault_message;
  EXPECT_EQ(storm.output, clean.output);
  EXPECT_EQ(storm.result.exit_code, clean.result.exit_code);
  // A corrupted staged chunk is silently discarded (the demand fetch heals
  // it), never installed.
  EXPECT_GT(storm.integrity.staged_drops, 0u);
}

TEST(Integrity, StoreDomainDropsCorruptBodies) {
  const image::Image img = StormImage();
  MultiClientConfig config;
  config.clients = 3;
  config.base = StormConfig();
  config.base.shared_reply = true;
  config.base.integrity.memfault = Storm(/*seed=*/37, /*rate=*/0.5);

  MultiClientSystem fleet(img, config);
  const auto results = fleet.RunAll();

  MultiClientConfig clean_cfg = config;
  clean_cfg.base.integrity.memfault = MemFaultConfig{};
  MultiClientSystem clean(img, clean_cfg);
  const auto clean_results = clean.RunAll();

  uint64_t store_drops = 0;
  for (uint32_t i = 0; i < config.clients; ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
        << "client " << i << ": " << results[i].fault_message;
    EXPECT_EQ(results[i].exit_code, clean_results[i].exit_code);
    EXPECT_EQ(fleet.OutputString(i), clean.OutputString(i));
    store_drops += fleet.cc(i).stats().integrity.store_drops;
  }
  // The shared content store was hit by the storm and every corrupted body
  // was dropped before a snooped install could use it.
  EXPECT_GT(store_drops, 0u);
}

TEST(Integrity, MemoDomainHealsFromPristineImage) {
  const image::Image img = StormImage();
  const SoftCacheConfig config = StormConfig();
  const StormRun clean = RunSolo(img, config, Engine::kInterp);

  softcache::McServerConfig server;
  server.memfault = Storm(/*seed=*/41, /*rate=*/0.3);
  const StormRun storm = RunSolo(img, config, Engine::kInterp, server);

  // Memo corruption is entirely server-side: the client's run is
  // bit-identical to clean, cycles included — healing happens before the
  // reply leaves the server.
  ExpectRunsIdentical(storm, clean, "memo storm vs clean");

  SoftCacheSystem probe(img, config, server);
  probe.Run();
  const auto& stats = probe.mc().server().stats();
  EXPECT_GT(stats.memo_flips_injected, 0u);
  EXPECT_GT(stats.memo_corruptions_detected, 0u);
  EXPECT_EQ(stats.memo_heals, stats.memo_corruptions_detected);
  EXPECT_GT(stats.memo_scrubs, 0u);
}

// ---------------------------------------------------------------------------
// The degradation ladder
// ---------------------------------------------------------------------------

TEST(Integrity, HealBudgetExhaustionDegradesToCleanFail) {
  const image::Image img = StormImage();
  SoftCacheConfig config = StormConfig();
  config.integrity.memfault = Storm(/*seed=*/5, /*rate=*/0.9);
  config.integrity.max_heal_attempts = 3;

  const StormRun a = RunSolo(img, config, Engine::kInterp);
  // A clean architectural fault (srun maps kFault to a nonzero process
  // exit), carrying the ladder's message — never a crash or silent
  // corruption.
  EXPECT_EQ(a.result.reason, vm::StopReason::kFault);
  EXPECT_NE(a.result.fault_message.find("heal budget exhausted"),
            std::string::npos)
      << a.result.fault_message;
  EXPECT_EQ(a.integrity.quarantines, 4u);  // budget + the fatal one
  EXPECT_EQ(a.integrity.heal_failures, 1u);

  // The failure itself is deterministic: same seed, same fault, same spot.
  const StormRun b = RunSolo(img, config, Engine::kInterp);
  ExpectRunsIdentical(a, b, "deterministic heal-budget fault");
}

TEST(Integrity, PoisonLadderDemotesRepeatOffenders) {
  const image::Image img = StormImage();
  const StormRun clean = RunSolo(img, StormConfig(), Engine::kThreaded);

  SoftCacheConfig config = StormConfig();
  config.integrity.memfault = Storm(/*seed=*/17, /*rate=*/0.35);
  config.integrity.poison_after = 1;  // first heal already poisons
  const StormRun storm = RunSolo(img, config, Engine::kThreaded);

  EXPECT_EQ(storm.result.reason, vm::StopReason::kHalted)
      << storm.result.fault_message;
  EXPECT_EQ(storm.result.exit_code, clean.result.exit_code);
  EXPECT_EQ(storm.output, clean.output);
  // Rung 1 engaged: healed chunks came back poisoned, and the threaded
  // engine ran them per-instruction instead of as multi-op superblocks.
  EXPECT_GT(storm.integrity.poisoned_blocks, 0u);
}

// ---------------------------------------------------------------------------
// Verify-on-use: a hand-planted flip is caught at the resolve boundary
// ---------------------------------------------------------------------------

TEST(Integrity, SoloRunBudgetCountsFromWhereTheRunStands) {
  // Run(n) means n more instructions with integrity on too, so a caller
  // slicing a run (srun --inspect-every) keeps making progress.
  const image::Image img = StormImage();
  SoftCacheSystem system(img, StormConfig());
  EXPECT_EQ(system.Run(5'000).instructions, 5'000u);
  EXPECT_EQ(system.Run(5'000).instructions, 10'000u);
}

TEST(Integrity, VerifyOnUseCatchesHandPlantedFlip) {
  const image::Image img = StormImage();
  SoftCacheConfig config = StormConfig();  // integrity on, no injector
  SoftCacheSystem system(img, config);

  // Warm the cache, then corrupt one resident tcache byte behind the
  // cache controller's back.
  auto first = system.Run(5'000);
  ASSERT_EQ(first.reason, vm::StopReason::kInstrLimit);
  const uint32_t victim = system.cc().AnyResidentTcacheByteForTest();
  ASSERT_NE(victim, 0u);
  system.machine().mem_data()[victim] ^= 0x40;

  // The run still completes with the correct story: the flip is detected
  // (by the next scrub or the next resolve of that block) and healed.
  const auto rest = system.Run();
  EXPECT_EQ(rest.reason, vm::StopReason::kHalted) << rest.fault_message;
  EXPECT_GE(system.stats().integrity.corruptions_detected, 1u);
  // Quarantined for sure; healed only if the program demands that chunk
  // again before halting (eviction churn may retire it first).
  EXPECT_GE(system.stats().integrity.quarantines, 1u);
  EXPECT_EQ(system.stats().integrity.flips_injected, 0u);

  const StormRun clean = RunSolo(img, config, Engine::kInterp);
  EXPECT_EQ(rest.exit_code, clean.result.exit_code);
  EXPECT_EQ(system.OutputString(), clean.output);
}

#ifdef __linux__
TEST(Integrity, ScrubSnapshotsAndSyncTouchOnlyGuestPagesInUse) {
  // Guest memory is lazy zero pages. Background scrubs, periodic Inspector
  // snapshots and the end-of-run session sync must read only what the guest
  // and its cache controller wrote, never walk the whole 18 MiB.
  const image::Image img = StormImage();
  MultiClientConfig config;
  config.clients = 2;
  config.base = StormConfig();  // scrub every 4 integrity ticks
  MultiClientSystem fleet(img, config);
  softcache::Inspector inspector(&fleet);
  fleet.set_inspection_hook(20'000, [&inspector](uint64_t) {
    std::ostringstream snapshot;
    inspector.WriteJson(snapshot, "periodic");
  });
  const auto results = fleet.RunAll();
  ASSERT_TRUE(fleet.SyncSessions());
  EXPECT_GT(inspector.snapshots_taken(), 2u);
  for (uint32_t i = 0; i < config.clients; ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
        << results[i].fault_message;
    EXPECT_GT(fleet.cc(i).stats().integrity.scrubs, 0u);
    const size_t touched = testing::ResidentGuestPages(fleet.machine(i));
    EXPECT_LE(touched, 32u) << "client " << i << ", of 4608 guest pages";
  }
}
#endif

}  // namespace
}  // namespace sc
