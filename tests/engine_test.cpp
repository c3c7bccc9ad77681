// Differential tests for the superblock threaded-code engine: the threaded
// engine must be *bit-identical* to the interpreter — output bytes, exit
// code, instruction count, cycle count, fault messages — on every workload,
// on random programs, under the softcache, under eviction churn, under
// instruction-budget slicing, and in the presence of self-modifying code.
// This file is the permanent form of the engine's correctness proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include <cstring>

#include "isa/isa.h"
#include "minicc/compiler.h"
#include "sasm/assembler.h"
#include "softcache/system.h"
#include "tests/program_gen.h"
#include "util/rng.h"
#include "vm/machine.h"
#include "vm/superblock.h"
#include "workloads/workloads.h"

namespace sc {
namespace {

using vm::Engine;

struct EngineRun {
  vm::RunResult result;
  std::string output;
};

void ExpectBitIdentical(const EngineRun& interp, const EngineRun& threaded,
                        const std::string& what) {
  EXPECT_EQ(static_cast<int>(interp.result.reason),
            static_cast<int>(threaded.result.reason))
      << what;
  EXPECT_EQ(interp.result.exit_code, threaded.result.exit_code) << what;
  EXPECT_EQ(interp.result.instructions, threaded.result.instructions) << what;
  EXPECT_EQ(interp.result.cycles, threaded.result.cycles) << what;
  EXPECT_EQ(interp.result.fault_message, threaded.result.fault_message)
      << what;
  EXPECT_EQ(interp.output, threaded.output) << what;
}

EngineRun RunNative(const image::Image& img, const std::vector<uint8_t>& input,
                    Engine engine, uint64_t max_instructions = UINT64_MAX) {
  vm::Machine machine;
  machine.set_engine(engine);
  machine.LoadImage(img);
  machine.SetInput(input);
  EngineRun run;
  run.result = machine.Run(max_instructions);
  run.output = machine.OutputString();
  return run;
}

EngineRun RunSoftcache(const image::Image& img,
                       const std::vector<uint8_t>& input, Engine engine,
                       const softcache::SoftCacheConfig& config) {
  softcache::SoftCacheSystem system(img, config);
  system.machine().set_engine(engine);
  system.SetInput(input);
  EngineRun run;
  run.result = system.Run(16'000'000'000ull);
  run.output = system.OutputString();
  if (run.result.reason == vm::StopReason::kHalted) {
    system.cc().CheckInvariants();
  }
  return run;
}

// ---------------------------------------------------------------------------
// Workloads, native and under the softcache
// ---------------------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "adpcm_enc", "compress95", "gzip", "cjpeg", "hextobdd", "sha256"};
  return kNames;
}

TEST(EngineDifferential, WorkloadsNative) {
  for (const std::string& name : WorkloadNames()) {
    const auto* spec = workloads::FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const EngineRun interp = RunNative(img, input, Engine::kInterp);
    const EngineRun threaded = RunNative(img, input, Engine::kThreaded);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << name << ": " << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, name);
  }
}

TEST(EngineDifferential, WorkloadsSoftcacheSparc) {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kSparc;
  config.tcache_bytes = 16 * 1024;
  for (const std::string& name : WorkloadNames()) {
    const auto* spec = workloads::FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(img, input, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << name << ": " << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, name);
  }
}

TEST(EngineDifferential, WorkloadsSoftcacheArm) {
  softcache::SoftCacheConfig config;
  config.style = softcache::Style::kArm;
  config.tcache_bytes = 32 * 1024;
  for (const std::string& name : {std::string("sha256"), std::string("gzip")}) {
    const auto* spec = workloads::FindWorkload(name);
    ASSERT_NE(spec, nullptr) << name;
    const image::Image img = workloads::CompileWorkload(*spec);
    const auto input = workloads::MakeInput(name, 1);
    const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(img, input, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << name << ": " << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, name);
  }
}

// Eviction churn: a tiny tcache forces constant install/patch/evict traffic,
// i.e. constant WriteWord/WriteBlock invalidation of live superblocks.
TEST(EngineDifferential, EvictionChurnTinyTcache) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);
  for (const uint32_t tcache : {1024u, 2048u}) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = tcache;
    const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(img, input, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << interp.result.fault_message;
    ExpectBitIdentical(interp, threaded, "tcache=" + std::to_string(tcache));
  }
}

// Recovery: a crash-prone MC restarts mid-run and the CC replays its journal.
// The threaded engine must ride through identically (crash points are cycle-
// and request-count-driven, both of which it reproduces exactly).
TEST(EngineDifferential, RecoveryCrashSchedule) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);
  softcache::SoftCacheConfig config;
  config.tcache_bytes = 4096;
  config.fault.seed = 7;
  config.fault.crash_period = 5;
  const EngineRun interp = RunSoftcache(img, input, Engine::kInterp, config);
  const EngineRun threaded = RunSoftcache(img, input, Engine::kThreaded, config);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  ExpectBitIdentical(interp, threaded, "crash_period=5");
}

// Multi-client: every client VM on the threaded engine, sharing one MC.
// Each client must be bit-identical to a solo interpreter run under the same
// softcache configuration (the fleet guarantee, now engine-independent).
TEST(EngineDifferential, MultiClientThreaded) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);

  softcache::MultiClientConfig mcfg;
  mcfg.clients = 4;
  mcfg.base.tcache_bytes = 8 * 1024;
  const EngineRun solo = RunSoftcache(img, input, Engine::kInterp, mcfg.base);
  softcache::MultiClientSystem fleet(img, mcfg);
  for (uint32_t i = 0; i < mcfg.clients; ++i) {
    fleet.machine(i).set_engine(Engine::kThreaded);
    fleet.SetInput(i, input);
  }
  const std::vector<vm::RunResult> results = fleet.RunAll();
  for (uint32_t i = 0; i < mcfg.clients; ++i) {
    ASSERT_EQ(results[i].reason, vm::StopReason::kHalted)
        << "client " << i << ": " << results[i].fault_message;
    EXPECT_EQ(results[i].exit_code, solo.result.exit_code) << i;
    EXPECT_EQ(results[i].instructions, solo.result.instructions) << i;
    EXPECT_EQ(fleet.OutputString(i), solo.output) << i;
  }
}

// A slice that ends inside a block resumes there: the dispatch loop enters
// the live block covering the resume pc at that op instead of translating a
// new block from it. So a fleet sliced into 1024-instruction quanta fills
// exactly the blocks an unsliced one does, client by client (two adpcm_enc
// clients filled 602 blocks each sliced against 307 unsliced when every
// resume translated afresh).
TEST(EngineResume, SlicedFleetFillsLikeUnsliced) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("adpcm_enc", 1);
  struct Client {
    uint64_t fills;
    uint64_t instructions;
    uint64_t cycles;
  };
  const auto run = [&](uint64_t quantum) {
    softcache::MultiClientConfig mcfg;
    mcfg.clients = 2;
    mcfg.quantum_instructions = quantum;
    softcache::MultiClientSystem fleet(img, mcfg);
    for (uint32_t i = 0; i < mcfg.clients; ++i) {
      fleet.machine(i).set_engine(Engine::kThreaded);
      fleet.SetInput(i, input);
    }
    std::vector<Client> clients;
    for (const vm::RunResult& r : fleet.RunAll()) {
      EXPECT_EQ(r.reason, vm::StopReason::kHalted) << r.fault_message;
      const size_t i = clients.size();
      clients.push_back(Client{fleet.machine(i).sb_stats().fills,
                               r.instructions, r.cycles});
    }
    return clients;
  };
  const std::vector<Client> unsliced = run(UINT64_MAX);
  const std::vector<Client> sliced = run(1024);
  ASSERT_EQ(sliced.size(), unsliced.size());
  for (size_t i = 0; i < sliced.size(); ++i) {
    EXPECT_GT(unsliced[i].fills, 0u);
    EXPECT_EQ(sliced[i].fills, unsliced[i].fills) << "client " << i;
    EXPECT_EQ(sliced[i].instructions, unsliced[i].instructions) << i;
    EXPECT_EQ(sliced[i].cycles, unsliced[i].cycles) << i;
  }
}

// ---------------------------------------------------------------------------
// Random programs (property_test-style)
// ---------------------------------------------------------------------------

class EngineRandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomProgramTest, NativeAndSoftcacheBitIdentical) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0xe7617e);
  const std::string source = gen.Generate(/*arm_safe=*/false);
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString() << "\n" << source;
  const std::vector<uint8_t> no_input;

  const EngineRun interp = RunNative(*img, no_input, Engine::kInterp);
  const EngineRun threaded = RunNative(*img, no_input, Engine::kThreaded);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message << " seed=" << seed;
  ExpectBitIdentical(interp, threaded, "native seed=" + std::to_string(seed));

  softcache::SoftCacheConfig config;
  config.tcache_bytes = 2048;
  const EngineRun sc_interp =
      RunSoftcache(*img, no_input, Engine::kInterp, config);
  const EngineRun sc_threaded =
      RunSoftcache(*img, no_input, Engine::kThreaded, config);
  ExpectBitIdentical(sc_interp, sc_threaded,
                     "softcache seed=" + std::to_string(seed));
}

// The instruction budget must bite at exactly the same instruction, even
// mid-superblock: run the threaded engine in odd-sized slices and require
// the same final state as the interpreter's one-shot run.
TEST_P(EngineRandomProgramTest, SlicedBudgetMatchesOneShot) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGen gen(seed ^ 0x51ce);
  const std::string source = gen.Generate();
  auto img = minicc::CompileMiniC(source, "gen.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const std::vector<uint8_t> no_input;
  const EngineRun interp = RunNative(*img, no_input, Engine::kInterp);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted);

  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(*img);
  vm::RunResult result;
  uint64_t slices = 0;
  for (;;) {
    result = machine.Run(777);
    ++slices;
    if (result.reason != vm::StopReason::kInstrLimit) break;
    ASSERT_LT(machine.instructions(), 400'000'000u) << "seed=" << seed;
  }
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_GT(slices, 1u);
  EXPECT_EQ(result.exit_code, interp.result.exit_code);
  EXPECT_EQ(result.instructions, interp.result.instructions);
  EXPECT_EQ(result.cycles, interp.result.cycles);
  EXPECT_EQ(machine.OutputString(), interp.output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomProgramTest,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Engine mechanics: formation, chaining, switching
// ---------------------------------------------------------------------------

TEST(EngineMechanics, FillsAndChainsAreCounted) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(img);
  machine.SetInput(workloads::MakeInput("sha256", 1));
  const vm::RunResult result = machine.Run();
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  const vm::SbStats& sb = machine.sb_stats();
  EXPECT_GT(sb.fills, 0u);
  EXPECT_GT(sb.fill_ops, sb.fills);  // blocks average > 1 op
  EXPECT_GT(sb.chains, 0u);          // hot blocks got linked
  // Chaining means dispatch-loop entries are far rarer than retired blocks:
  // the whole point of the engine. Fills bound the number of distinct
  // blocks; the workload retires millions of instructions.
  EXPECT_LT(sb.fills, result.instructions / 100);
}

TEST(EngineMechanics, SwitchingEnginesMidRunIsSeamless) {
  const auto* spec = workloads::FindWorkload("dijkstra");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("dijkstra", 1);
  const EngineRun interp = RunNative(img, input, Engine::kInterp);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted);

  vm::Machine machine;
  machine.LoadImage(img);
  machine.SetInput(input);
  Engine engine = Engine::kThreaded;
  vm::RunResult result;
  for (;;) {
    machine.set_engine(engine);
    engine = engine == Engine::kThreaded ? Engine::kInterp : Engine::kThreaded;
    result = machine.Run(10'000);
    if (result.reason != vm::StopReason::kInstrLimit) break;
    ASSERT_LT(machine.instructions(), 400'000'000u);
  }
  ASSERT_EQ(result.reason, vm::StopReason::kHalted) << result.fault_message;
  EXPECT_EQ(result.exit_code, interp.result.exit_code);
  EXPECT_EQ(result.instructions, interp.result.instructions);
  EXPECT_EQ(result.cycles, interp.result.cycles);
  EXPECT_EQ(machine.OutputString(), interp.output);
}

TEST(EngineMechanics, FaultMessagesIdentical) {
  // Programs that divide by zero, jump into unmapped or misaligned space, and
  // fault on a data access mid-block after a MUL and a DIV: the threaded
  // engine must produce the interpreter's exact fault strings (pc included)
  // and counters. The mid-block faults publish the earlier ops' non-unit
  // costs (li 1 + li 1 + mul 3 + div 12 = 17 cycles), not the faulting op's.
  struct Fault {
    const char* src;
    uint64_t cycles;  // 0: not pinned
  };
  const Fault kFaults[] = {
      {"_start:\n  li t0, 1\n  li t1, 0\n  div t2, t0, t1\n  sys 0\n", 0},
      {"_start:\n  li t0, 0x7f000000\n  jalr zero, t0, 0\n", 0},
      {"_start:\n  li t0, 6\n  jalr zero, t0, 2\n", 0},
      {"_start:\n  li t0, 7\n  li t1, 3\n  mul t2, t0, t1\n"
       "  div t3, t0, t1\n  lw t4, 2(sp)\n  sys 0\n",
       17},
      {"_start:\n  li t0, 7\n  li t1, 3\n  mul t2, t0, t1\n"
       "  div t3, t0, t1\n  sw t2, 16(zero)\n  sys 0\n",
       17},
  };
  for (const Fault& fault : kFaults) {
    auto img = sasm::Assemble(fault.src);
    ASSERT_TRUE(img.ok()) << img.error().ToString();
    const EngineRun interp = RunNative(*img, {}, Engine::kInterp, 1'000'000);
    const EngineRun threaded =
        RunNative(*img, {}, Engine::kThreaded, 1'000'000);
    EXPECT_EQ(interp.result.reason, vm::StopReason::kFault);
    ExpectBitIdentical(interp, threaded, fault.src);
    if (fault.cycles != 0) {
      EXPECT_EQ(threaded.result.cycles, fault.cycles) << fault.src;
      EXPECT_EQ(threaded.result.instructions, 5u) << fault.src;
    }
  }
}

// A block's cycle prefix (SbOp::cyc_before) is 32 bits: the largest cost
// set_cost_model accepts still counts exactly over a full 32-op block, and
// one more aborts.
TEST(EngineMechanics, LargestCostModelCountsExactly) {
  constexpr uint32_t kMax = UINT32_MAX / (vm::kSbMaxOps + 1);
  const vm::CostModel cost{kMax, kMax, kMax, kMax, kMax, kMax, kMax, kMax};
  std::string src = "_start:\n";
  for (int i = 0; i < 40; ++i) src += "  addi t0, t0, 1\n";
  src += "  sys 0\n";
  auto img = sasm::Assemble(src);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  vm::RunResult results[2];
  for (const Engine engine : {Engine::kInterp, Engine::kThreaded}) {
    vm::Machine machine;
    machine.set_engine(engine);
    machine.set_cost_model(cost);
    machine.LoadImage(*img);
    results[static_cast<int>(engine)] = machine.Run();
  }
  EXPECT_EQ(results[0].reason, vm::StopReason::kHalted);
  EXPECT_EQ(results[1].reason, vm::StopReason::kHalted);
  EXPECT_EQ(results[0].cycles, 41ull * kMax);
  EXPECT_EQ(results[1].cycles, results[0].cycles);
  EXPECT_EQ(results[1].instructions, results[0].instructions);
}

TEST(EngineMechanicsDeathTest, OversizedCostAborts) {
  vm::CostModel cost;
  cost.div = UINT32_MAX / (vm::kSbMaxOps + 1) + 1;
  EXPECT_DEATH(
      {
        vm::Machine machine;
        machine.set_cost_model(cost);
      },
      "cost too large");
}

// ---------------------------------------------------------------------------
// Lockstep: budget slices and fetch observers
// ---------------------------------------------------------------------------

// Patches the first instruction of `body` between two passes over it; exits
// with 1 + 2 = 3 only if the second pass runs the patched word.
constexpr const char* kPatchBetweenPasses = R"(
    _start:
      li s0, 0          # pass counter
      li s1, 0          # accumulator
    loop:
      j body
    body:
      addi t3, zero, 1  # patched to 2 between passes
      add s1, s1, t3
      addi s0, s0, 1
      li t4, 2
      blt s0, t4, patch_it
      mv a0, s1         # pass1: 1, pass2: 2 -> 3
      sys 0
    patch_it:
      la t0, body
      la t1, patch
      lw t2, 0(t1)
      sw t2, 0(t0)
      j loop
    patch:
      addi t3, zero, 2
  )";

// Slice sizes around the superblock length cap (kSbMaxOps = 32).
constexpr uint64_t kSlices[] = {1, 2, 3, 7, 31, 32, 33, 777};

// One engine's side of a lockstep run: its machine and how to run it for a
// budget (Machine::Run, or SoftCacheSystem::Run around it).
struct Side {
  vm::Machine* machine;
  std::function<vm::RunResult(uint64_t)> run;
};

// Runs both sides in slices of `slice` instructions (0: rotate through
// kSlices) and compares the stop reason, pc and counters after every slice,
// until the interpreter stops for another reason or `max_instructions`
// retire. Returns the interpreter's last stop reason.
vm::StopReason RunLockstep(const Side& interp, const Side& threaded,
                           uint64_t slice, uint64_t max_instructions,
                           const std::string& what) {
  for (uint64_t i = 0;; ++i) {
    const uint64_t n = slice != 0 ? slice : kSlices[i % std::size(kSlices)];
    const vm::RunResult a = interp.run(n);
    const vm::RunResult b = threaded.run(n);
    const std::string at =
        what + " slice " + std::to_string(i) + " of " + std::to_string(n);
    EXPECT_EQ(static_cast<int>(a.reason), static_cast<int>(b.reason)) << at;
    EXPECT_EQ(interp.machine->pc(), threaded.machine->pc()) << at;
    EXPECT_EQ(a.instructions, b.instructions) << at;
    EXPECT_EQ(a.cycles, b.cycles) << at;
    EXPECT_EQ(interp.machine->instructions(), threaded.machine->instructions())
        << at;
    EXPECT_EQ(interp.machine->cycles(), threaded.machine->cycles()) << at;
    EXPECT_EQ(a.exit_code, b.exit_code) << at;
    EXPECT_EQ(a.fault_message, b.fault_message) << at;
    if (::testing::Test::HasFailure() ||
        a.reason != vm::StopReason::kInstrLimit ||
        a.instructions >= max_instructions) {
      return a.reason;
    }
  }
}

// Fresh native machines for `img` on both engines.
struct NativePair {
  NativePair(const image::Image& img, const std::vector<uint8_t>& input) {
    interp.set_engine(Engine::kInterp);
    threaded.set_engine(Engine::kThreaded);
    for (vm::Machine* m : {&interp, &threaded}) {
      m->LoadImage(img);
      m->SetInput(input);
    }
  }
  vm::StopReason Lockstep(uint64_t slice, uint64_t max_instructions,
                          const std::string& what) {
    return RunLockstep({&interp, [this](uint64_t n) { return interp.Run(n); }},
                       {&threaded,
                        [this](uint64_t n) { return threaded.Run(n); }},
                       slice, max_instructions, what);
  }
  vm::Machine interp;
  vm::Machine threaded;
};

TEST(EngineLockstep, NativeSha256EverySlice) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("sha256", 1);
  for (const uint64_t slice : kSlices) {
    NativePair pair(img, input);
    pair.Lockstep(slice, 100'000, "slice=" + std::to_string(slice));
    ASSERT_FALSE(HasFailure());
  }
  NativePair pair(img, input);
  pair.Lockstep(0, UINT64_MAX, "rotating");
  EXPECT_EQ(pair.threaded.OutputString(), pair.interp.OutputString());
  EXPECT_GT(pair.threaded.sb_stats().chains, 0u);
}

TEST(EngineLockstep, SoftcacheTinyTcacheEverySlice) {
  // adpcm_enc with a 1 KB tcache: TCMISS traps, evictions and the stores
  // that kill live superblocks land at every budget position.
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("adpcm_enc", 1);
  softcache::SoftCacheConfig config;
  config.tcache_bytes = 1024;
  for (const uint64_t slice : {0ull, 1ull, 7ull, 33ull, 777ull}) {
    softcache::SoftCacheSystem interp(img, config);
    softcache::SoftCacheSystem threaded(img, config);
    interp.machine().set_engine(Engine::kInterp);
    threaded.machine().set_engine(Engine::kThreaded);
    interp.SetInput(input);
    threaded.SetInput(input);
    RunLockstep({&interp.machine(), [&](uint64_t n) { return interp.Run(n); }},
                {&threaded.machine(),
                 [&](uint64_t n) { return threaded.Run(n); }},
                slice, slice == 0 ? 1'000'000 : 150'000,
                "slice=" + std::to_string(slice));
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(threaded.stats().evictions, 0u);
    EXPECT_GT(threaded.machine().sb_stats().invalidations, 0u);
  }
}

// A data hook over all of memory that charges a few address-dependent
// cycles per access, so Charge() lands between the ops of a block.
class ChargingHook : public vm::DataHook {
 public:
  uint32_t Translate(vm::Machine& m, uint32_t vaddr, uint32_t,
                     bool is_store) override {
    m.Charge(1 + ((vaddr >> 2) & 3) + (is_store ? 2 : 0));
    return vaddr;
  }
};

TEST(EngineLockstep, DataHookChargesMidBlock) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  NativePair pair(img, workloads::MakeInput("sha256", 1));
  ChargingHook hooks[2];
  pair.interp.SetDataHook(&hooks[0], image::kNullGuardEnd,
                          pair.interp.mem_size());
  pair.threaded.SetDataHook(&hooks[1], image::kNullGuardEnd,
                            pair.threaded.mem_size());
  pair.Lockstep(0, UINT64_MAX, "hooked");
  EXPECT_EQ(pair.threaded.OutputString(), pair.interp.OutputString());
}

// A budget that ends exactly at a block reached through a chain (a budget
// tail of zero ops), in a loop whose body is one 3-instruction block.
TEST(EngineLockstep, BudgetEndsAtChainedBlockBoundary) {
  auto img = sasm::Assemble(
      "_start:\n  li t0, 0\n  li t1, 50\nloop:\n  addi t0, t0, 1\n"
      "  mul t2, t0, t0\n  bne t0, t1, loop\n  sys 0\n");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  NativePair pair(*img, {});
  const uint32_t loop = img->entry + 8;
  // 8 = 5 + 3 leaves through the dispatch loop before the loop block's
  // self-chain is filled. 6 = two trips, the second entered through the
  // chain; each 3 = one trip. Every slice but the first stops on a chained
  // entry into the loop block, a budget tail of zero ops.
  for (const uint64_t slice : {8ull, 6ull, 3ull, 3ull}) {
    pair.Lockstep(slice, 0, "slice=" + std::to_string(slice));
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(pair.threaded.pc(), loop);
  }
  EXPECT_EQ(pair.threaded.instructions(), 20u);
  EXPECT_GT(pair.threaded.sb_stats().chains, 0u);
  pair.Lockstep(0, UINT64_MAX, "to the end");
}

// Records (pc, instructions(), cycles()) at every fetch; detaches itself
// after `detach_after` fetches.
class FetchRecorder : public vm::FetchObserver {
 public:
  FetchRecorder(vm::Machine& m, size_t detach_after = SIZE_MAX)
      : m_(m), detach_after_(detach_after) {}
  void OnFetch(uint32_t pc) override {
    log.push_back({pc, m_.instructions(), m_.cycles()});
    if (log.size() == detach_after_) m_.set_fetch_observer(nullptr);
  }
  std::vector<std::tuple<uint32_t, uint64_t, uint64_t>> log;

 private:
  vm::Machine& m_;
  size_t detach_after_;
};

TEST(EngineObserver, AttachedFromTheStart) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  NativePair pair(img, workloads::MakeInput("sha256", 1));
  FetchRecorder interp(pair.interp);
  FetchRecorder threaded(pair.threaded);
  pair.interp.set_fetch_observer(&interp);
  pair.threaded.set_fetch_observer(&threaded);
  pair.Lockstep(0, 100'000, "observed");
  EXPECT_GE(interp.log.size(), 100'000u);
  EXPECT_EQ(interp.log, threaded.log);
}

TEST(EngineObserver, AttachedWhileSuperblocksAreLive) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  NativePair pair(img, workloads::MakeInput("sha256", 1));
  pair.Lockstep(777, 200'000, "unobserved");
  ASSERT_GT(pair.threaded.sb_cache()->live_blocks(), 0u);
  FetchRecorder interp(pair.interp);
  FetchRecorder threaded(pair.threaded);
  pair.interp.set_fetch_observer(&interp);
  pair.threaded.set_fetch_observer(&threaded);
  pair.Lockstep(0, 300'000, "observed");
  EXPECT_GE(interp.log.size(), 100'000u);
  EXPECT_EQ(interp.log, threaded.log);
}

// Observed slices run on the interpreter, whose stores do not kill
// superblocks. Alternating observed and unobserved slices of every size up
// to 8, in both phases, puts the patch store in an observed slice between
// threaded runs of the patched block.
TEST(EngineObserver, InterpretedStoresDropSuperblocks) {
  auto img = sasm::Assemble(kPatchBetweenPasses);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  for (uint64_t slice = 1; slice <= 8; ++slice) {
    for (const uint64_t phase : {0u, 1u}) {
      const std::string what =
          "slice " + std::to_string(slice) + " phase " + std::to_string(phase);
      NativePair pair(*img, {});
      FetchRecorder interp(pair.interp);
      FetchRecorder threaded(pair.threaded);
      vm::StopReason reason = vm::StopReason::kInstrLimit;
      for (uint64_t i = 0; reason == vm::StopReason::kInstrLimit; ++i) {
        ASSERT_LT(i, 10'000u) << what;
        const bool observed = i % 2 == phase;
        pair.interp.set_fetch_observer(observed ? &interp : nullptr);
        pair.threaded.set_fetch_observer(observed ? &threaded : nullptr);
        reason = pair.Lockstep(slice, 0, what);
        ASSERT_FALSE(HasFailure());
      }
      EXPECT_EQ(reason, vm::StopReason::kHalted) << what;
      EXPECT_EQ(pair.threaded.Run().exit_code, 3) << what;
      EXPECT_EQ(interp.log, threaded.log) << what;
    }
  }
}

TEST(EngineObserver, DetachedMidRun) {
  const auto* spec = workloads::FindWorkload("sha256");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  NativePair pair(img, workloads::MakeInput("sha256", 1));
  // Detaches inside a 777-instruction slice; later slices run threaded.
  FetchRecorder interp(pair.interp, 20'000);
  FetchRecorder threaded(pair.threaded, 20'000);
  pair.interp.set_fetch_observer(&interp);
  pair.threaded.set_fetch_observer(&threaded);
  pair.Lockstep(777, 300'000, "detaching");
  EXPECT_EQ(interp.log.size(), 20'000u);
  EXPECT_EQ(interp.log, threaded.log);
  EXPECT_GT(pair.threaded.sb_cache()->live_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// Self-modifying code
// ---------------------------------------------------------------------------

// A guest store patches an instruction *later in the same straight-line run*
// (same superblock as the store). The threaded engine pre-decoded the old
// word; the store must interrupt the block so the patched word executes.
TEST(EngineSmc, StorePatchesUpcomingInstructionInSameBlock) {
  // target: starts as "addi a0, zero, 1"; the store rewrites it to
  // "addi a0, zero, 42" two instructions before execution reaches it.
  const char* kSource = R"(
    _start:
      la t0, target
      la t1, patch
      lw t2, 0(t1)
      sw t2, 0(t0)
    target:
      addi a0, zero, 1
      sys 0
    patch:
      addi a0, zero, 42
  )";
  auto img = sasm::Assemble(kSource);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun interp = RunNative(*img, {}, Engine::kInterp, 1'000);
  const EngineRun threaded = RunNative(*img, {}, Engine::kThreaded, 1'000);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  EXPECT_EQ(interp.result.exit_code, 42);
  ExpectBitIdentical(interp, threaded, "same-block patch");
}

// The patched instruction sits in a *different*, already-translated and
// already-chained superblock: the store must sever the chain, not just the
// current block. The loop executes the target block once (translating and
// chaining it), patches it, and runs it again.
TEST(EngineSmc, StorePatchesPreviouslyExecutedBlock) {
  auto img = sasm::Assemble(kPatchBetweenPasses);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun interp = RunNative(*img, {}, Engine::kInterp, 10'000);
  const EngineRun threaded = RunNative(*img, {}, Engine::kThreaded, 10'000);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  EXPECT_EQ(interp.result.exit_code, 3);
  ExpectBitIdentical(interp, threaded, "cross-block patch");
  // The threaded run really did retranslate: at least one invalidation.
  vm::Machine machine;
  machine.set_engine(Engine::kThreaded);
  machine.LoadImage(*img);
  ASSERT_EQ(machine.Run(10'000).exit_code, 3);
  EXPECT_GT(machine.sb_stats().invalidations, 0u);
}

// The guest patches code through SYS_ICACHE_INVAL under the softcache (the
// paper's self-modifying-code contract), with live superblocks over the
// patched region — including the currently executing one. Must agree with
// native on both engines, at sizes that do and do not force eviction churn.
constexpr const char* kSelfModifyingProgram = R"(
  int answer() { return 1011; }
  int main() {
    int before = answer();
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

TEST(EngineSmc, IcacheInvalUnderSoftcacheBothEngines) {
  auto img = minicc::CompileMiniC(kSelfModifyingProgram, "smc.mc");
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const EngineRun native_interp = RunNative(*img, {}, Engine::kInterp);
  const EngineRun native_threaded = RunNative(*img, {}, Engine::kThreaded);
  ASSERT_EQ(native_interp.result.reason, vm::StopReason::kHalted)
      << native_interp.result.fault_message;
  ASSERT_EQ(native_interp.result.exit_code, 0);
  ExpectBitIdentical(native_interp, native_threaded, "native smc");

  for (const uint32_t tcache : {32u * 1024, 1024u}) {
    softcache::SoftCacheConfig config;
    config.tcache_bytes = tcache;
    const EngineRun interp = RunSoftcache(*img, {}, Engine::kInterp, config);
    const EngineRun threaded =
        RunSoftcache(*img, {}, Engine::kThreaded, config);
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
        << interp.result.fault_message;
    EXPECT_EQ(interp.result.exit_code, 0);
    ExpectBitIdentical(interp, threaded, "tcache=" + std::to_string(tcache));
  }
}

// SYS_READ writing into translated text (self-modifying code staged through
// the input stream) must invalidate superblocks byte by byte.
TEST(EngineSmc, SysReadIntoTextInvalidates) {
  // Pass 1 executes `target` (translating its superblock), then SYS_READ
  // pulls 4 input bytes over it — the encoding of "addi a0, zero, 9" — and
  // pass 2 re-executes it. The read lands on an already-translated block, so
  // the per-byte superblock invalidation in kSysRead is what keeps the
  // threaded engine honest.
  const char* kSource = R"(
    _start:
      li s0, 0
    loop:
      j target
    target:
      addi a0, zero, 1
      addi s0, s0, 1
      li t4, 2
      blt s0, t4, do_read
      sys 0
    do_read:
      la t0, target
      mv a0, t0
      li a1, 4
      sys 4
      j loop
  )";
  auto img = sasm::Assemble(kSource);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const uint32_t patch = isa::EncI(isa::Opcode::kAddi, isa::kA0, isa::kZero, 9);
  std::vector<uint8_t> input(4);
  std::memcpy(input.data(), &patch, 4);
  const EngineRun interp = RunNative(*img, input, Engine::kInterp, 1'000);
  const EngineRun threaded = RunNative(*img, input, Engine::kThreaded, 1'000);
  ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted)
      << interp.result.fault_message;
  EXPECT_EQ(interp.result.exit_code, 9);
  ExpectBitIdentical(interp, threaded, "sys_read patch");
}

// ---------------------------------------------------------------------------
// The invalidation store against a brute-force reference
// ---------------------------------------------------------------------------

TEST(SuperblockStore, ZeroBytesAreAValueInitializedBlock) {
  // The slab and the op arena hand out fresh zero pages without
  // constructing them.
  const unsigned char zeros[sizeof(vm::Superblock)] = {};
  vm::Superblock from_zeros;
  std::memcpy(&from_zeros, zeros, sizeof zeros);
  const vm::Superblock init{};
  EXPECT_EQ(from_zeros.start, init.start);
  EXPECT_EQ(from_zeros.span, init.span);
  EXPECT_EQ(from_zeros.n_ops, init.n_ops);
  EXPECT_EQ(from_zeros.valid, init.valid);
  EXPECT_EQ(from_zeros.taken, init.taken);
  EXPECT_EQ(from_zeros.fall, init.fall);
  EXPECT_EQ(from_zeros.digest, init.digest);
  EXPECT_EQ(from_zeros.ops, init.ops);
  const unsigned char op_zeros[sizeof(vm::SbOp)] = {};
  vm::SbOp a;
  std::memcpy(&a, op_zeros, sizeof op_zeros);
  const vm::SbOp b{};
  EXPECT_EQ(a.handler, b.handler);
  EXPECT_EQ(a.cyc_before, b.cyc_before);
  EXPECT_EQ(a.imm, b.imm);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.rs1, b.rs1);
  EXPECT_EQ(a.rs2, b.rs2);
}

// The kill rules of SuperblockCache, by brute force: a write kills every
// live block it overlaps, except that a write spanning [lo, hi) of the
// blocks published since the last flush flushes everything instead.
class RefStore {
 public:
  struct Block {
    vm::Superblock* sb;
    uint32_t start;
    uint32_t span;
    bool live;
  };

  void Publish(vm::Superblock* sb) {
    blocks_.push_back(Block{sb, sb->start, sb->span, true});
    ++live_;
    lo_ = std::min(lo_, sb->start);
    hi_ = std::max(hi_, sb->start + sb->span);
  }
  bool Invalidate(uint32_t addr, uint32_t len) {
    if (live_ == 0) return false;
    const uint64_t end = static_cast<uint64_t>(addr) + len;
    if (addr >= hi_ || end <= lo_) return false;
    if (addr <= lo_ && end >= hi_) {
      FlushMark();
      return true;
    }
    bool any = false;
    for (Block& b : blocks_) {
      if (b.live && b.start < end && b.start + b.span > addr) {
        Kill(b);
        any = true;
      }
    }
    return any;
  }
  uint32_t Scrub(uint64_t* words) {
    uint32_t killed = 0;
    for (Block& b : blocks_) {
      if (!b.live) continue;
      *words += b.sb->n_ops;
      if (b.sb->digest == vm::SbDigest(*b.sb)) continue;
      Kill(b);
      ++killed;
    }
    return killed;
  }
  void FlushMark() {
    for (Block& b : blocks_) b.live = false;
    live_ = 0;
    lo_ = UINT32_MAX;
    hi_ = 0;
    ++stats_.flushes;
  }
  void Reclaim() {
    blocks_.clear();
    live_ = 0;
    lo_ = UINT32_MAX;
    hi_ = 0;
  }
  // Live blocks covering each word of [0, words).
  std::vector<uint32_t> Coverage(uint32_t words) const {
    std::vector<uint32_t> cover(words, 0);
    for (const Block& b : blocks_) {
      if (!b.live) continue;
      for (uint32_t w = b.start / 4; w < (b.start + b.span) / 4; ++w) {
        ++cover[w];
      }
    }
    return cover;
  }

  const std::vector<Block>& blocks() const { return blocks_; }
  size_t live() const { return live_; }
  uint32_t lo() const { return live_ == 0 ? UINT32_MAX : lo_; }
  uint32_t hi() const { return live_ == 0 ? 0 : hi_; }
  const vm::SbStats& stats() const { return stats_; }

 private:
  void Kill(Block& b) {
    b.live = false;
    --live_;
    ++stats_.invalidations;
  }

  std::vector<Block> blocks_;  // every block since the last Reclaim
  size_t live_ = 0;
  uint32_t lo_ = UINT32_MAX;
  uint32_t hi_ = 0;
  vm::SbStats stats_;
};

class SuperblockStoreProperty : public ::testing::TestWithParam<int> {};

TEST_P(SuperblockStoreProperty, MatchesBruteForceReference) {
  // A dense 1 KiB text region inside 64 KiB of guest memory: blocks of 1 to
  // kSbMaxOps words overlap heavily, so writes of every size kill several.
  constexpr uint32_t kMem = 64 * 1024;
  constexpr uint32_t kWords = kMem / 4;
  constexpr uint32_t kBase = 0x2000;
  constexpr uint32_t kText = 1024;
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  vm::SuperblockCache cache(kMem);
  vm::SbStats stats;
  RefStore ref;
  const vm::SbOp* arena_base = nullptr;  // the first block's ops

  const auto publish = [&] {
    const uint32_t start =
        kBase + 4 * static_cast<uint32_t>(rng.Below(kText / 4));
    const bool taken = std::any_of(
        ref.blocks().begin(), ref.blocks().end(),
        [start](const RefStore::Block& b) { return b.live && b.start == start; });
    ASSERT_EQ(cache.Find(start) != nullptr, taken) << "start " << start;
    if (taken) return;  // one live block per start
    vm::Superblock* sb = cache.NewBlock();
    if (arena_base == nullptr) arena_base = sb->ops;
    sb->start = start;
    sb->n_ops = 1 + static_cast<uint32_t>(rng.Below(vm::kSbMaxOps));
    sb->span = sb->n_ops * 4;
    for (uint32_t i = 0; i < sb->n_ops; ++i) {
      sb->ops[i] = vm::SbOp{};
      sb->ops[i].cyc_before = i;
      sb->ops[i].imm = static_cast<int32_t>(rng.Next32());
    }
    sb->digest = vm::SbDigest(*sb);
    cache.Publish(sb);
    ref.Publish(sb);
  };
  const auto write = [&](uint32_t addr, uint32_t len) {
    const bool killed = cache.Invalidate(addr, len, &stats);
    ASSERT_EQ(killed, ref.Invalidate(addr, len))
        << "write [" << addr << ", +" << len << ")";
  };
  const auto small_write = [&] {
    static constexpr uint32_t kLens[] = {1, 2, 4, 4, 4, 8, 64, 300};
    const uint32_t len = kLens[rng.Below(std::size(kLens))];
    const uint32_t addr =
        kBase - 256 + static_cast<uint32_t>(rng.Below(kText + 512));
    write(len >= 4 ? addr & ~3u : addr & ~(len - 1), len);
  };
  const auto check = [&](bool coverage) {
    ASSERT_EQ(cache.live_blocks(), ref.live());
    ASSERT_EQ(cache.pool_size(), ref.blocks().size());
    ASSERT_EQ(cache.lo(), ref.lo());
    ASSERT_EQ(cache.hi(), ref.hi());
    ASSERT_EQ(stats.invalidations, ref.stats().invalidations);
    ASSERT_EQ(stats.flushes, ref.stats().flushes);
    for (const RefStore::Block& b : ref.blocks()) {
      ASSERT_EQ(b.sb->valid, b.live) << "block at " << b.start;
      if (b.live) {
        ASSERT_EQ(cache.Find(b.start), b.sb);
      }
    }
    // The op arena: the blocks since the last Reclaim sit packed from its
    // base in publish order, so no two of them share op storage and Reclaim
    // hands the base out again.
    size_t arena = 0;
    for (const RefStore::Block& b : ref.blocks()) {
      ASSERT_EQ(b.sb->ops, arena_base + arena) << "block at " << b.start;
      arena += b.sb->n_ops;
    }
    ASSERT_EQ(cache.arena_ops(), arena);
    if (!coverage && ref.live() != 0) return;
    const std::vector<uint32_t> want = ref.Coverage(kWords);
    for (uint32_t w = 0; w < kWords; ++w) {
      ASSERT_EQ(cache.coverage(w * 4), want[w]) << "word at " << w * 4;
    }
    // A mid-block entry at pc enters the live block starting nearest below
    // pc that covers it.
    for (uint32_t pc = kBase - 256; pc < kBase + kText + 256; pc += 4) {
      const vm::Superblock* nearest = nullptr;
      for (const RefStore::Block& b : ref.blocks()) {
        if (b.live && b.start < pc && b.start + b.span > pc &&
            (nearest == nullptr || b.start > nearest->start)) {
          nearest = b.sb;
        }
      }
      ASSERT_EQ(cache.FindCovering(pc), nearest) << "pc " << pc;
    }
  };

  for (int step = 0; step < 20000; ++step) {
    if (cache.reclaim_pending()) {
      // What the dispatch loop may do between a flush and its next
      // top-of-loop: publish the block translated after a capacity flush,
      // and run it (a store into text).
      if (rng.Chance(1, 2)) publish();
      if (rng.Chance(1, 3)) small_write();
      cache.Reclaim();
      ref.Reclaim();
    } else if (cache.pool_size() >= 1000) {
      cache.FlushMark(&stats);  // the capacity flush, at a smaller cap
      ref.FlushMark();
    } else {
      const uint64_t r = rng.Below(100);
      if (r < 45) {
        publish();
      } else if (r < 90) {
        small_write();
      } else if (r < 94) {
        for (uint64_t n = rng.Below(3); n > 0; --n) cache.CorruptBit(rng);
        uint64_t words = 0;
        uint64_t ref_words = 0;
        ASSERT_EQ(cache.ScrubCorrupt(&stats, &words), ref.Scrub(&ref_words));
        ASSERT_EQ(words, ref_words);
      } else if (r < 97) {
        cache.FlushMark(&stats);
        ref.FlushMark();
      } else {
        write(kBase - 4 * static_cast<uint32_t>(rng.Below(4)),
              kText + 4 * static_cast<uint32_t>(rng.Below(64)));
      }
    }
    if (HasFatalFailure()) return;
    check(step % 64 == 0);
    if (HasFatalFailure()) return;
  }
  // Drain: flush and reclaim leave every count at zero.
  cache.FlushMark(&stats);
  ref.FlushMark();
  cache.Reclaim();
  ref.Reclaim();
  check(true);
  EXPECT_EQ(cache.pool_size(), 0u);
  EXPECT_EQ(cache.arena_ops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuperblockStoreProperty,
                         ::testing::Range(1, 5));

}  // namespace
}  // namespace sc
