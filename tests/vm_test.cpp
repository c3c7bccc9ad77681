// VM semantics tests: per-opcode behaviour, faults, the cycle model,
// syscalls, hook points and execution-range enforcement.
#include <gtest/gtest.h>

#include "sasm/assembler.h"
#include "tests/testing.h"
#include "vm/machine.h"

namespace sc {
namespace {

struct VmRun {
  vm::RunResult result;
  vm::Machine machine;
};

// Assembles and runs the program on both engines, which must agree on every
// guest-visible result; the threaded machine is returned for state
// inspection.
std::unique_ptr<VmRun> RunAsm(std::string_view asm_source, std::string_view input = "",
                              uint64_t max_instructions = 1'000'000) {
  auto img = sasm::Assemble(asm_source);
  SC_CHECK(img.ok()) << img.error().ToString();
  const auto run_on = [&](vm::Engine engine) {
    auto run = std::make_unique<VmRun>();
    run->machine.set_engine(engine);
    run->machine.LoadImage(*img);
    run->machine.SetInput(std::vector<uint8_t>(input.begin(), input.end()));
    run->result = run->machine.Run(max_instructions);
    return run;
  };
  const auto interp = run_on(vm::Engine::kInterp);
  auto threaded = run_on(vm::Engine::kThreaded);
  EXPECT_EQ(interp->result.reason, threaded->result.reason);
  EXPECT_EQ(interp->result.exit_code, threaded->result.exit_code);
  EXPECT_EQ(interp->result.instructions, threaded->result.instructions);
  EXPECT_EQ(interp->result.cycles, threaded->result.cycles);
  EXPECT_EQ(interp->result.fault_message, threaded->result.fault_message);
  EXPECT_EQ(interp->machine.OutputString(), threaded->machine.OutputString());
  return threaded;
}

int RunExit(std::string_view asm_source) {
  const auto run = RunAsm(asm_source);
  SC_CHECK(run->result.reason == vm::StopReason::kHalted)
      << run->result.fault_message;
  return run->result.exit_code;
}

TEST(VmAlu, SignedUnsignedOps) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, -8
      li t1, 3
      div t2, t0, t1     # -2
      rem t3, t0, t1     # -2
      add a0, t2, t3     # -4
      neg a0, a0         # 4
      sys 0
  )"), 4);
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, -8          # 0xfffffff8
      li t1, 16
      divu t2, t0, t1    # 0x0ffffff f...
      srli t2, t2, 24    # 0x0f
      mv a0, t2
      sys 0
  )"), 0x0f);
}

TEST(VmAlu, ShiftsMaskTo5Bits) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, 1
      li t1, 33          # shift amount masks to 1
      sll t2, t0, t1
      mv a0, t2
      sys 0
  )"), 2);
}

TEST(VmAlu, SltVariants) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, -1
      li t1, 1
      slt t2, t0, t1     # 1 (signed)
      sltu t3, t0, t1    # 0 (0xffffffff not < 1)
      slli t2, t2, 1
      add a0, t2, t3     # 2
      sys 0
  )"), 2);
}

TEST(VmAlu, DivideByZeroFaults) {
  const auto run = RunAsm("_start: li t0, 1\n li t1, 0\n div t2, t0, t1\n halt\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("division by zero"), std::string::npos);
}

TEST(VmAlu, IntMinDividedByMinusOneWraps) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, 0x80000000
      li t1, -1
      div t2, t0, t1     # wraps to INT_MIN
      srli a0, t2, 28    # 0x8
      sys 0
  )"), 8);
}

TEST(VmMemory, LoadStoreAllWidths) {
  EXPECT_EQ(RunExit(R"(
    .bss
    buf: .space 16
    .text
    _start:
      la t0, buf
      li t1, 0x80
      sb t1, 0(t0)
      lbu t2, 0(t0)      # 0x80 zero-extended
      lb t3, 0(t0)       # sign-extended -128
      add t4, t2, t3     # 0
      li t1, 0x8000
      sh t1, 4(t0)
      lhu t5, 4(t0)      # 0x8000
      lh t6, 4(t0)       # -0x8000
      add t5, t5, t6     # 0
      add a0, t4, t5
      addi a0, a0, 9
      sys 0
  )"), 9);
}

TEST(VmMemory, MisalignedAccessFaults) {
  const auto run = RunAsm(R"(
    _start:
      li t0, 0x100002
      lw t1, 0(t0)
      halt
  )");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("misaligned"), std::string::npos);
}

TEST(VmMemory, NullGuardFaults) {
  const auto run = RunAsm("_start: lw t0, 0(zero)\n halt\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("null-guard"), std::string::npos);
}

TEST(VmMemory, OutOfRangeFaults) {
  const auto run = RunAsm(R"(
    _start:
      li t0, 0x7fffff00
      sw t0, 0(t0)
      halt
  )");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("out-of-range"), std::string::npos);
}

#ifdef __linux__
TEST(VmMemory, UntouchedGuestPagesAreNotResident) {
  // Guest memory is lazy zero pages: a small program that calls, stores to
  // bss and touches the stack faults in only the pages it uses, not the
  // whole address space.
  const auto run = RunAsm(R"(
    .bss
    buf: .space 64
    .text
    _start:
      jal store
      la t0, buf
      lw a0, 0(t0)
      sys 0
    store:
      addi sp, sp, -8
      sw ra, 4(sp)
      la t0, buf
      li t1, 7
      sw t1, 0(t0)
      lw ra, 4(sp)
      addi sp, sp, 8
      ret
  )");
  ASSERT_EQ(run->result.reason, vm::StopReason::kHalted)
      << run->result.fault_message;
  ASSERT_EQ(run->result.exit_code, 7);

  const size_t touched = testing::ResidentGuestPages(run->machine);
  EXPECT_GT(touched, 0u);  // text and stack pages at least
  EXPECT_LE(touched, 16u) << "of 4608 guest pages";
}
#endif

TEST(VmControl, JalLinksAndJalrReturns) {
  EXPECT_EQ(RunExit(R"(
    _start:
      jal sub
      mv a0, rv
      sys 0
    sub:
      li rv, 77
      ret
  )"), 77);
}

TEST(VmControl, RegisterZeroIsImmutable) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li t0, 55
      add zero, t0, t0
      mv a0, zero
      sys 0
  )"), 0);
}

TEST(VmControl, IllegalInstructionFaults) {
  const auto run = RunAsm(".text\n_start: .word 0xffffffff\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("illegal"), std::string::npos);
}

TEST(VmControl, TcMissWithoutHandlerFaults) {
  // TCMISS is opcode 31 in the J format: craft it via .word.
  const auto run = RunAsm("_start: .word 0x7c000000\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("no trap handler"), std::string::npos);
}

TEST(VmControl, InstructionLimitStops) {
  const auto run = RunAsm("_start: j _start\n", "", 1000);
  EXPECT_EQ(run->result.reason, vm::StopReason::kInstrLimit);
  EXPECT_EQ(run->result.instructions, 1000u);
}

TEST(VmEngine, NewMachinesRunThreaded) {
  auto img = sasm::Assemble("_start: nop\n nop\n halt\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  EXPECT_EQ(machine.engine(), vm::Engine::kThreaded);
  machine.LoadImage(*img);
  EXPECT_EQ(machine.Run(100).reason, vm::StopReason::kHalted);
  EXPECT_GT(machine.sb_stats().fills, 0u);
}

TEST(VmSyscalls, EchoRoundTrip) {
  const auto run = RunAsm(R"(
    _start:
      sys 2              # getchar
      mv a0, rv
      sys 1              # putchar
      li a0, 0
      sys 0
  )", "Q");
  EXPECT_EQ(run->result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(run->machine.OutputString(), "Q");
}

TEST(VmSyscalls, GetcharEofIsMinusOne) {
  EXPECT_EQ(RunExit(R"(
    _start:
      sys 2
      li t0, -1
      bne rv, t0, bad
      li a0, 1
      sys 0
    bad:
      li a0, 0
      sys 0
  )"), 1);
}

TEST(VmSyscalls, BrkGrowsHeap) {
  EXPECT_EQ(RunExit(R"(
    _start:
      li a0, 64
      sys 5              # sbrk(64) -> old break
      mv t0, rv
      li a0, 64
      sys 5              # again
      sub t1, rv, t0     # 64 apart
      mv a0, t1
      sys 0
  )"), 64);
}

TEST(VmSyscalls, CyclesAdvance) {
  EXPECT_EQ(RunExit(R"(
    _start:
      sys 6
      mv t0, rv
      nop
      nop
      sys 6
      sltu a0, t0, rv    # later reading is larger
      sys 0
  )"), 1);
}

TEST(VmSyscalls, UnknownSyscallFaults) {
  const auto run = RunAsm("_start: sys 999\n halt\n");
  EXPECT_EQ(run->result.reason, vm::StopReason::kFault);
  EXPECT_NE(run->result.fault_message.find("unknown syscall"), std::string::npos);
}

TEST(VmCostModel, MulDivCostMore) {
  const auto cheap = RunAsm("_start: add t0, t1, t2\n halt\n");
  const auto mul = RunAsm("_start: mul t0, t1, t2\n halt\n");
  const auto div = RunAsm("_start: li t1, 1\n div t0, t1, t1\n halt\n");
  EXPECT_GT(mul->result.cycles, cheap->result.cycles);
  EXPECT_GT(div->result.cycles, mul->result.cycles);
}

TEST(VmExecRange, RestrictionEnforced) {
  auto img = sasm::Assemble("_start: nop\n nop\n halt\n");
  ASSERT_TRUE(img.ok());
  for (const vm::Engine engine : {vm::Engine::kInterp, vm::Engine::kThreaded}) {
    vm::Machine machine;
    machine.set_engine(engine);
    machine.LoadImage(*img);
    machine.SetExecRange(0x2000000, 0x2001000);  // text is far outside
    const auto result = machine.Run(100);
    EXPECT_EQ(result.reason, vm::StopReason::kFault);
    EXPECT_NE(result.fault_message.find("outside permitted range"),
              std::string::npos);
  }
}

TEST(VmHooks, FetchObserverSeesEveryPc) {
  struct Counter : vm::FetchObserver {
    uint64_t count = 0;
    uint32_t first = 0;
    void OnFetch(uint32_t pc) override {
      if (count == 0) first = pc;
      ++count;
    }
  };
  auto img = sasm::Assemble("_start: nop\n nop\n nop\n halt\n");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  Counter counter;
  machine.set_fetch_observer(&counter);
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(counter.count, result.instructions);
  EXPECT_EQ(counter.first, img->entry);
}

TEST(VmHooks, DataHookRedirectsAccesses) {
  struct Redirect : vm::DataHook {
    uint32_t hits = 0;
    uint32_t Translate(vm::Machine& m, uint32_t vaddr, uint32_t size,
                       bool is_store) override {
      (void)m; (void)size; (void)is_store;
      ++hits;
      return vaddr + 0x100;  // shift the window
    }
  };
  auto img = sasm::Assemble(R"(
    .bss
    spot: .space 512
    .text
    _start:
      la t0, spot
      li t1, 42
      sw t1, 0(t0)       # hooked: actually writes spot+0x100
      lw a0, 256(t0)     # unhooked address range? also hooked; reads back
      sys 0
  )");
  ASSERT_TRUE(img.ok());
  vm::Machine machine;
  machine.LoadImage(*img);
  Redirect hook;
  const image::Symbol* spot = img->FindSymbol("spot");
  ASSERT_NE(spot, nullptr);
  machine.SetDataHook(&hook, spot->addr, spot->addr + 4);  // only first word hooked
  const auto result = machine.Run(100);
  EXPECT_EQ(result.reason, vm::StopReason::kHalted);
  EXPECT_EQ(hook.hits, 1u);                   // only the sw was in range
  EXPECT_EQ(result.exit_code, 42);            // read at +0x100 sees the value
}

}  // namespace
}  // namespace sc
