// Differential tests for the superblock threaded-code engine: the threaded
// engine must be *bit-identical* to the interpreter — output bytes, exit
// code, instruction count, cycle count, fault messages — natively on every
// workload and random program, under instruction-budget slicing, block by
// block in lockstep, and in the presence of self-modifying code. Runs under
// the softcache are the configuration oracle's (property_test), whose
// engine dimension compares the threaded engine with an interpreter run of
// the same configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <cstring>

#include "image/layout.h"
#include "isa/isa.h"
#include "minicc/compiler.h"
#include "obs/metrics.h"
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
      // A miss stub (TCMISS, opcode 31) with no trap handler, reached at the
      // dispatch pc by a jump and as the first instruction.
      {"_start:\n  li t0, 1\n  j stub\nstub:\n  .word 0x7c000005\n", 0},
      {"_start:\n  .word 0x7c000000\n", 0},
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

// Translation takes an op from the decoded words a code installer hands
// WriteBlock while memory still holds the handed-over word, and decodes
// memory once it does not. A handoff that disagrees with isa::Decode (which
// a real installer never passes) shows which of the two a block came from.
TEST(EngineMechanics, InstallHandoffIsUsedOnlyWhileTheWordMatches) {
  const uint32_t at = image::kTextBase;
  const uint32_t loop[] = {isa::EncI(isa::Opcode::kAddi, isa::kA0, isa::kA0, 1),
                           isa::EncJ(isa::Opcode::kJ, -2)};
  isa::Instr decoded[] = {isa::Decode(loop[0]), isa::Decode(loop[1])};
  decoded[0].imm = 2;
  vm::Machine machine;
  machine.WriteBlock(at, loop, sizeof loop, decoded);
  machine.set_pc(at);
  ASSERT_EQ(machine.Run(20).reason, vm::StopReason::kInstrLimit);
  EXPECT_EQ(machine.reg(isa::kA0), 20u);  // 10 passes of the handed-over op
  vm::SbOp ops[vm::kSbMaxOps + 1];
  uint32_t span = 0;
  ASSERT_EQ(machine.FormSuperblock(at, ops, &span), 2u);
  EXPECT_EQ(ops[0].imm, 1);  // FormSuperblock decodes memory

  // A new word kills the block; the refill decodes it.
  machine.WriteWord(at, isa::EncI(isa::Opcode::kAddi, isa::kA0, isa::kA0, 3));
  ASSERT_EQ(machine.Run(20).reason, vm::StopReason::kInstrLimit);
  EXPECT_EQ(machine.reg(isa::kA0), 50u);
  EXPECT_EQ(machine.sb_stats().fills, 2u);
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
// Retargeting in place: the cache controller's patches against translation
// ---------------------------------------------------------------------------

bool SameOp(const vm::SbOp& a, const vm::SbOp& b) {
  return a.handler == b.handler && a.cyc_before == b.cyc_before &&
         a.imm == b.imm && a.cost == b.cost && a.kind == b.kind &&
         a.rd == b.rd && a.rs1 == b.rs1 && a.rs2 == b.rs2;
}

// Every live superblock must read what forming a block at its start from
// the current memory gives, handler pointers aside; a filled chain slot
// must lead to a block starting at that edge's target. FormSuperblock
// decodes memory itself, so this also checks the decoded words the cache
// controller hands over with each install. Returns the number of blocks
// checked.
uint64_t ExpectLiveBlocksMatchMemory(const vm::Machine& m) {
  const vm::SuperblockCache* cache = m.sb_cache();
  if (cache == nullptr) return 0;
  uint64_t checked = 0;
  vm::SbOp want[vm::kSbMaxOps + 1];
  cache->ForEachLive([&](const vm::Superblock& sb, const vm::Superblock* taken,
                         const vm::Superblock* fall) {
    if (::testing::Test::HasFailure()) return;
    ++checked;
    // The dispatch loop runs a miss stub no live block covers as a trap,
    // without forming a block around it.
    ASSERT_NE(sb.ops[0].kind, vm::kSbTcMiss) << "lone stub at " << sb.start;
    uint32_t span = 0;
    const uint32_t n = m.FormSuperblock(sb.start, want, &span);
    ASSERT_EQ(sb.n_ops, n) << "block at " << sb.start;
    ASSERT_EQ(sb.span, span) << "block at " << sb.start;
    for (uint32_t i = 0; i < n; ++i) {
      const vm::SbOp& got = sb.ops[i];
      want[i].handler = got.handler;
      ASSERT_TRUE(SameOp(got, want[i]))
          << "block at " << sb.start << " op " << i << ": kind "
          << int{got.kind} << " imm " << got.imm << ", memory gives kind "
          << int{want[i].kind} << " imm " << want[i].imm;
    }
    const vm::SbOp& term = sb.ops[n - 1];
    if (taken != nullptr) {
      ASSERT_TRUE(term.kind == vm::kSbJ || term.kind == vm::kSbJal ||
                  (term.kind >= vm::kSbBeq && term.kind <= vm::kSbBgeu))
          << "block at " << sb.start;
      ASSERT_EQ(taken->start, static_cast<uint32_t>(term.imm))
          << "block at " << sb.start;
    }
    if (fall != nullptr) {
      ASSERT_EQ(fall->start, sb.start + sb.span) << "block at " << sb.start;
    }
  });
  return checked;
}

// Forwards the machine's traps to the cache controller and checks the live
// superblocks after each one, that is after every batch of patches.
class RetargetChecker : public vm::TrapHandler {
 public:
  explicit RetargetChecker(softcache::CacheController& cc) : cc_(cc) {}

  uint32_t OnTcMiss(vm::Machine& m, uint32_t stub) override {
    return Checked(m, cc_.OnTcMiss(m, stub));
  }
  uint32_t OnTcJalr(vm::Machine& m, const isa::Instr& instr,
                    uint32_t pc) override {
    return Checked(m, cc_.OnTcJalr(m, instr, pc));
  }
  uint32_t OnIcacheInvalidate(vm::Machine& m, uint32_t addr, uint32_t len,
                              uint32_t pc) override {
    return Checked(m, cc_.OnIcacheInvalidate(m, addr, len, pc));
  }
  uint64_t traps() const { return traps_; }
  uint64_t blocks_checked() const { return blocks_checked_; }

 private:
  uint32_t Checked(vm::Machine& m, uint32_t resume) {
    ++traps_;
    blocks_checked_ += ExpectLiveBlocksMatchMemory(m);
    // A failed check stops the run at once (resume at the null guard).
    return ::testing::Test::HasFailure() ? 0 : resume;
  }

  softcache::CacheController& cc_;
  uint64_t traps_ = 0;
  uint64_t blocks_checked_ = 0;
};

// Every cc.* counter of a solo system.
std::map<std::string, uint64_t> CcCounters(
    const softcache::SoftCacheSystem& system) {
  obs::MetricsRegistry registry;
  system.RegisterMetrics(&registry);
  std::map<std::string, uint64_t> cc;
  for (const auto& [name, value] : registry.TakeSnapshot().counters) {
    if (name.rfind("cc.", 0) == 0) cc.emplace(name, value);
  }
  return cc;
}

// The solo_thrash shape in both styles: a 1 KB tcache below adpcm_enc's hot
// set, so the controller patches branches, jumps and miss stubs on every
// miss and the threaded engine rewrites most of them in place. After every
// trap the live blocks must match memory and none may start with a miss
// stub; the run and every cc.* counter must equal the interpreter's.
TEST(EngineRetarget, PatchedBlocksMatchMemoryThrashing1K) {
  const auto* spec = workloads::FindWorkload("adpcm_enc");
  ASSERT_NE(spec, nullptr);
  const image::Image img = workloads::CompileWorkload(*spec);
  const auto input = workloads::MakeInput("adpcm_enc", 1);
  for (const softcache::Style style :
       {softcache::Style::kSparc, softcache::Style::kArm}) {
    const std::string what =
        style == softcache::Style::kSparc ? "sparc" : "arm";
    softcache::SoftCacheConfig config;
    config.style = style;
    config.tcache_bytes = 1024;
    softcache::SoftCacheSystem reference(img, config);
    reference.machine().set_engine(Engine::kInterp);
    reference.SetInput(input);
    EngineRun interp;
    interp.result = reference.Run(16'000'000'000ull);
    interp.output = reference.OutputString();
    ASSERT_EQ(interp.result.reason, vm::StopReason::kHalted) << what;
    reference.cc().CheckInvariants();

    softcache::SoftCacheSystem system(img, config);
    system.machine().set_engine(Engine::kThreaded);
    system.SetInput(input);
    ASSERT_EQ(system.Run(0).reason, vm::StopReason::kInstrLimit);  // attaches
    RetargetChecker checker(system.cc());
    system.machine().set_trap_handler(&checker);
    EngineRun threaded;
    threaded.result = system.Run(16'000'000'000ull);
    threaded.output = system.OutputString();
    ASSERT_FALSE(HasFailure()) << what;
    ExpectBitIdentical(interp, threaded, what);
    EXPECT_EQ(CcCounters(reference), CcCounters(system)) << what;

    const vm::SbStats& sb = system.machine().sb_stats();
    EXPECT_GT(checker.traps(), 10'000u) << what;
    EXPECT_GT(checker.blocks_checked(), checker.traps()) << what;
    EXPECT_GT(sb.retargets, 10'000u) << what;
    EXPECT_GT(sb.invalidations, 0u) << what;
    // Fills with no block around a stub (a block per stub reached gave
    // 291,035 and 216,869).
    EXPECT_EQ(sb.fills, style == softcache::Style::kSparc ? 172'494u
                                                          : 208'608u)
        << what;
  }
}

// Host word writes between slices, as a trap handler makes them: a branch
// retargeted elsewhere (rewritten in place, with its chained taken edge
// dropped) and then overwritten with a non-branch (which must kill: the
// block would otherwise run on past its end). Both engines take the same
// writes at the same instruction counts and must agree after every slice.
TEST(EngineRetarget, HostWordWritesBetweenSlices) {
  const char* kSource = R"(
    _start:
      addi a0, zero, 0
      addi t1, zero, 1000
    loop:
      addi a0, a0, 1
      blt a0, t1, loop
      sys 0
    other:
      addi a0, a0, 3
      j loop
  )";
  auto img = sasm::Assemble(kSource);
  ASSERT_TRUE(img.ok()) << img.error().ToString();
  const uint32_t branch = img->text_base + 12;
  const uint32_t other = img->text_base + 20;
  ASSERT_EQ(isa::Decode(img->TextWord(branch)).op, isa::Opcode::kBlt);
  const uint32_t retargeted = isa::EncBranch(isa::Opcode::kBlt, isa::kA0,
                                             isa::kT1,
                                             isa::OffsetFor(branch, other));
  ASSERT_EQ(isa::BranchTarget(branch, isa::Decode(retargeted).imm), other);
  const uint32_t plain = isa::EncI(isa::Opcode::kAddi, isa::kA0, isa::kA0, 7);

  vm::Machine interp;
  vm::Machine threaded;
  interp.set_engine(Engine::kInterp);
  threaded.set_engine(Engine::kThreaded);
  interp.LoadImage(*img);
  threaded.LoadImage(*img);
  vm::RunResult a;
  for (int slice = 0;; ++slice) {
    for (vm::Machine* m : {&interp, &threaded}) {
      if (slice == 5) m->WriteWord(branch, retargeted);
      if (slice == 10) m->WriteWord(branch, plain);
    }
    if (slice == 5) {
      // Two live blocks end at the branch: the loop's and _start's, which
      // runs on into the loop's first pass.
      EXPECT_EQ(threaded.sb_stats().retargets, 2u);
      EXPECT_EQ(threaded.sb_stats().invalidations, 0u);
    }
    if (slice == 10) {
      EXPECT_GT(threaded.sb_stats().invalidations, 0u);
    }
    a = interp.Run(37);
    const vm::RunResult b = threaded.Run(37);
    ASSERT_EQ(static_cast<int>(a.reason), static_cast<int>(b.reason))
        << "slice " << slice;
    ASSERT_EQ(a.instructions, b.instructions) << "slice " << slice;
    ASSERT_EQ(a.cycles, b.cycles) << "slice " << slice;
    ASSERT_EQ(interp.pc(), threaded.pc()) << "slice " << slice;
    ASSERT_EQ(a.exit_code, b.exit_code) << "slice " << slice;
    if (a.reason != vm::StopReason::kInstrLimit) break;
    ASSERT_LT(slice, 1000);
  }
  ASSERT_EQ(a.reason, vm::StopReason::kHalted) << a.fault_message;
  // a0 grows by 1 a pass before the retarget and by 4 after it (it would
  // end near 192 had the branch kept its target).
  EXPECT_EQ(a.exit_code, 287);
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

// The kill and rewrite rules of SuperblockCache, by brute force: a write
// kills every live block it overlaps, except that a write spanning [lo, hi)
// of the blocks published since the last flush flushes everything instead;
// a host rewrite of one word to a real terminator rewrites that op in place
// when every live block covering the word ends there with a real
// terminator (and, when stamps are checked, still matches its stamp), and
// otherwise kills like a write.
class RefStore {
 public:
  struct Block {
    vm::Superblock* sb;
    uint32_t start;
    uint32_t span;
    bool live;
    std::vector<vm::SbOp> ops;  // what the block's ops must read
    const vm::Superblock* taken;
    const vm::Superblock* fall;
  };

  explicit RefStore(uint32_t words) : reach_(words, 0) {}

  void Publish(vm::Superblock* sb) {
    blocks_.push_back(Block{sb, sb->start, sb->span, true,
                            std::vector<vm::SbOp>(sb->ops, sb->ops + sb->n_ops),
                            nullptr, nullptr});
    ++live_;
    lo_ = std::min(lo_, sb->start);
    hi_ = std::max(hi_, sb->start + sb->span);
    for (uint32_t i = 0; i < sb->span / 4; ++i) {
      reach_[sb->start / 4 + i] = std::max(reach_[sb->start / 4 + i], i);
    }
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
  // Returns true when the rewrite of the word at `addr` to `op` happens in
  // place (and applies it), false when the caller must Invalidate.
  bool Rewrite(uint32_t addr, const vm::SbOp& op, bool restamp) {
    const auto terminator = [](uint8_t kind) {
      return kind >= vm::kSbBeq && kind <= vm::kSbIllegal;
    };
    if (!terminator(op.kind)) return false;
    std::vector<Block*> covering;
    for (Block& b : blocks_) {
      if (b.live && b.start <= addr && b.start + b.span > addr) {
        covering.push_back(&b);
      }
    }
    if (covering.empty()) return false;
    for (const Block* b : covering) {
      const size_t k = (addr - b->start) / 4;
      if (k + 1 != b->ops.size() || !terminator(b->ops[k].kind)) return false;
      if (k == 0 && op.kind == vm::kSbTcMiss) return false;
      if (restamp && b->sb->digest != vm::SbDigest(*b->sb)) return false;
    }
    for (Block* b : covering) {
      vm::SbOp& term = b->ops[(addr - b->start) / 4];
      const uint32_t cyc_before = term.cyc_before;
      term = op;
      term.cyc_before = cyc_before;
      b->taken = nullptr;
      b->fall = nullptr;
      ++stats_.retargets;
    }
    return true;
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
    std::fill(reach_.begin(), reach_.end(), 0);  // nothing covers anything
  }
  void Reclaim() {
    blocks_.clear();
    live_ = 0;
    lo_ = UINT32_MAX;
    hi_ = 0;
    std::fill(reach_.begin(), reach_.end(), 0);
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

  std::vector<Block>& blocks() { return blocks_; }
  size_t live() const { return live_; }
  uint32_t lo() const { return live_ == 0 ? UINT32_MAX : lo_; }
  uint32_t hi() const { return live_ == 0 ? 0 : hi_; }
  uint32_t reach(uint32_t word) const { return reach_[word]; }
  const vm::SbStats& stats() const { return stats_; }

 private:
  void Kill(Block& b) {
    b.live = false;
    --live_;
    ++stats_.invalidations;
    // A word no live block covers any more drops its reach.
    for (uint32_t w = b.start / 4; w < (b.start + b.span) / 4; ++w) {
      const bool covered = std::any_of(
          blocks_.begin(), blocks_.end(), [w](const Block& o) {
            return o.live && o.start / 4 <= w && (o.start + o.span) / 4 > w;
          });
      if (!covered) reach_[w] = 0;
    }
  }

  std::vector<Block> blocks_;  // every block since the last Reclaim
  size_t live_ = 0;
  uint32_t lo_ = UINT32_MAX;
  uint32_t hi_ = 0;
  std::vector<uint32_t> reach_;  // per word: max offset since it was bare
  vm::SbStats stats_;
};

// Stand-ins for the threaded loop's label addresses: Retarget must install
// the new op's handler along with its fields.
const char kFakeHandlers[vm::kSbKindCount] = {};

void ExpectOpsEqual(const vm::Superblock& sb,
                    const std::vector<vm::SbOp>& want) {
  ASSERT_EQ(sb.n_ops, want.size()) << "block at " << sb.start;
  for (uint32_t i = 0; i < sb.n_ops; ++i) {
    ASSERT_TRUE(SameOp(sb.ops[i], want[i]))
        << "block at " << sb.start << " op " << i;
  }
}

class SuperblockStoreProperty : public ::testing::TestWithParam<int> {};

TEST_P(SuperblockStoreProperty, MatchesBruteForceReference) {
  // A dense 1 KiB text region inside 64 KiB of guest memory: blocks of 1 to
  // kSbMaxOps words overlap heavily, so writes of every size kill several.
  constexpr uint32_t kMem = 64 * 1024;
  constexpr uint32_t kWords = kMem / 4;
  constexpr uint32_t kBase = 0x2000;
  constexpr uint32_t kText = 1024;
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  // Odd seeds check and re-stamp digests on a rewrite, as a machine with
  // superblock integrity on does; even seeds leave stamps alone.
  const bool restamp = GetParam() % 2 == 1;
  vm::SuperblockCache cache(kMem);
  vm::SbStats stats;
  RefStore ref(kWords);
  const vm::SbOp* arena_base = nullptr;  // the first block's ops

  const auto random_op = [&](bool terminator) {
    vm::SbOp op;
    op.kind = static_cast<uint8_t>(
        terminator ? vm::kSbBeq + rng.Below(vm::kSbIllegal - vm::kSbBeq + 1)
                   : rng.Below(vm::kSbBeq));
    op.handler = &kFakeHandlers[op.kind];
    op.imm = static_cast<int32_t>(rng.Next32());
    op.cost = static_cast<uint32_t>(rng.Below(13));
    op.rd = static_cast<uint8_t>(rng.Below(33));
    op.rs1 = static_cast<uint8_t>(rng.Below(32));
    op.rs2 = static_cast<uint8_t>(rng.Below(32));
    return op;
  };
  const auto random_live = [&]() -> RefStore::Block* {
    std::vector<RefStore::Block*> live;
    for (RefStore::Block& b : ref.blocks()) {
      if (b.live) live.push_back(&b);
    }
    return live.empty() ? nullptr : live[rng.Below(live.size())];
  };
  // Three block shapes: ended by a real terminator (most), cut short with a
  // synthetic fallthrough, and bare (no terminator at all; translation never
  // forms one, but Retarget must still refuse it). A third of the
  // terminated blocks are suffixes of a live one, ending on the same word,
  // as a chain into the middle of a block forms them.
  const auto publish = [&] {
    uint32_t start = kBase + 4 * static_cast<uint32_t>(rng.Below(kText / 4));
    uint32_t real = 1 + static_cast<uint32_t>(rng.Below(vm::kSbMaxOps));
    const uint64_t shape = rng.Below(8);
    if (shape < 2) {
      const RefStore::Block* b = random_live();
      if (b != nullptr && b->span == 4 * b->ops.size()) {
        const uint32_t end = b->start + b->span;
        start = b->start + 4 * static_cast<uint32_t>(rng.Below(b->span / 4));
        real = (end - start) / 4;
      }
    }
    const bool taken = std::any_of(
        ref.blocks().begin(), ref.blocks().end(),
        [start](const RefStore::Block& b) { return b.live && b.start == start; });
    ASSERT_EQ(cache.Find(start) != nullptr, taken) << "start " << start;
    if (taken) return;  // one live block per start
    vm::Superblock* sb = cache.NewBlock();
    if (arena_base == nullptr) arena_base = sb->ops;
    sb->start = start;
    sb->span = real * 4;
    sb->n_ops = real;
    for (uint32_t i = 0; i < real; ++i) {
      sb->ops[i] = random_op(/*terminator=*/i + 1 == real && shape < 6);
      sb->ops[i].cyc_before = i;
    }
    if (shape == 6) {
      vm::SbOp& fall = sb->ops[sb->n_ops++];
      fall = vm::SbOp{};
      fall.kind = vm::kSbFallthrough;
      fall.cyc_before = real;
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
  // A host WriteWord as Machine routes it: Retarget, or else Invalidate.
  // Mostly aimed at the last real op of a live block.
  const auto rewrite = [&] {
    uint32_t addr = kBase - 16 + 4 * static_cast<uint32_t>(rng.Below(kText / 4 + 8));
    if (rng.Chance(2, 3)) {
      if (const RefStore::Block* b = random_live()) addr = b->start + b->span - 4;
    }
    const vm::SbOp op = random_op(/*terminator=*/rng.Chance(4, 5));
    const bool in_place = cache.Retarget(addr, op, restamp, &stats);
    ASSERT_EQ(in_place, ref.Rewrite(addr, op, restamp)) << "rewrite " << addr;
    if (!in_place) {
      write(addr, 4);
      return;
    }
    // The rewritten op at once (the rest may carry a corrupted bit that
    // only the next scrub removes).
    for (const RefStore::Block& b : ref.blocks()) {
      if (!b.live || b.start > addr || b.start + b.span <= addr) continue;
      ASSERT_TRUE(SameOp(b.sb->ops[(addr - b.start) / 4],
                         b.ops[(addr - b.start) / 4]))
          << "block at " << b.start;
      if (restamp) {
        ASSERT_EQ(b.sb->digest, vm::SbDigest(*b.sb));
      }
    }
  };
  // The dispatch loop filling a block's chain slots.
  const auto chain = [&] {
    RefStore::Block* b = random_live();
    if (b == nullptr) return;
    const RefStore::Block* taken = random_live();
    const RefStore::Block* fall = random_live();
    b->sb->taken = taken->sb;
    b->sb->fall = rng.Chance(1, 2) ? fall->sb : nullptr;
    b->taken = b->sb->taken;
    b->fall = b->sb->fall;
  };
  const auto check = [&](bool full) {
    ASSERT_EQ(cache.live_blocks(), ref.live());
    ASSERT_EQ(cache.pool_size(), ref.blocks().size());
    ASSERT_EQ(cache.lo(), ref.lo());
    ASSERT_EQ(cache.hi(), ref.hi());
    ASSERT_EQ(stats.invalidations, ref.stats().invalidations);
    ASSERT_EQ(stats.retargets, ref.stats().retargets);
    ASSERT_EQ(stats.flushes, ref.stats().flushes);
    for (const RefStore::Block& b : ref.blocks()) {
      ASSERT_EQ(b.sb->valid, b.live) << "block at " << b.start;
      if (b.live) {
        ASSERT_EQ(cache.Find(b.start), b.sb);
        ASSERT_EQ(b.sb->taken, b.taken) << "block at " << b.start;
        ASSERT_EQ(b.sb->fall, b.fall) << "block at " << b.start;
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
    // Every step, over the words blocks can cover: each coverage count,
    // each reach, and that a mid-block entry at pc enters the live block
    // starting nearest below pc that covers it.
    constexpr uint32_t kLo = (kBase - 256) / 4;
    constexpr uint32_t kHi = (kBase + kText + 256) / 4;
    std::vector<uint32_t> cover(kHi - kLo, 0);
    std::vector<const vm::Superblock*> nearest(kHi - kLo, nullptr);
    for (const RefStore::Block& b : ref.blocks()) {
      if (!b.live) continue;
      for (uint32_t w = b.start / 4; w < (b.start + b.span) / 4; ++w) {
        ++cover[w - kLo];
        const vm::Superblock*& n = nearest[w - kLo];
        if (w > b.start / 4 && (n == nullptr || b.start > n->start)) n = b.sb;
      }
    }
    for (uint32_t w = kLo; w < kHi; ++w) {
      ASSERT_EQ(cache.coverage(w * 4), cover[w - kLo]) << "word at " << w * 4;
      ASSERT_EQ(cache.reach(w * 4), ref.reach(w)) << "word at " << w * 4;
      ASSERT_EQ(cache.FindCovering(w * 4), nearest[w - kLo]) << "pc " << w * 4;
    }
    if (!full && ref.live() != 0) return;
    for (const RefStore::Block& b : ref.blocks()) {
      if (b.live) ExpectOpsEqual(*b.sb, b.ops);
    }
    // Nothing outside those words is covered.
    const std::vector<uint32_t> want = ref.Coverage(kWords);
    for (uint32_t w = 0; w < kWords; ++w) {
      ASSERT_EQ(cache.coverage(w * 4), want[w]) << "word at " << w * 4;
      ASSERT_EQ(cache.reach(w * 4), ref.reach(w)) << "word at " << w * 4;
    }
  };

  for (int step = 0; step < 20000; ++step) {
    if (cache.reclaim_pending()) {
      // What the dispatch loop may do between a flush and its next
      // top-of-loop: publish the block translated after a capacity flush,
      // and run it (a store into text, or a trap that patches it).
      if (rng.Chance(1, 2)) publish();
      if (rng.Chance(1, 3)) small_write();
      if (rng.Chance(1, 3)) rewrite();
      cache.Reclaim();
      ref.Reclaim();
    } else if (cache.pool_size() >= 1000) {
      cache.FlushMark(&stats);  // the capacity flush, at a smaller cap
      ref.FlushMark();
    } else {
      const uint64_t r = rng.Below(100);
      if (r < 40) {
        publish();
      } else if (r < 65) {
        small_write();
      } else if (r < 85) {
        rewrite();
      } else if (r < 90) {
        chain();
      } else if (r < 94) {
        // Corrupt, maybe rewrite over the corruption, then scrub: a
        // re-stamping rewrite must never launder a corrupted block.
        for (uint64_t n = rng.Below(3); n > 0; --n) cache.CorruptBit(rng);
        if (rng.Chance(1, 2)) rewrite();
        if (HasFatalFailure()) return;
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
  EXPECT_GT(stats.retargets, 0u);
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
