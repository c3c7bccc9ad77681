// SRK32 ISA unit tests: encode/decode round trips, immediate ranges,
// classification predicates and the disassembler.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "isa/isa.h"
#include "util/rng.h"

namespace sc::isa {
namespace {

TEST(IsaEncode, AluRoundTrip) {
  for (int funct = 0; funct < static_cast<int>(AluOp::kCount); ++funct) {
    Instr in;
    in.op = Opcode::kAlu;
    in.funct = static_cast<AluOp>(funct);
    in.rd = kT0;
    in.rs1 = kA0;
    in.rs2 = kS3;
    EXPECT_EQ(Decode(Encode(in)), in) << "funct " << funct;
  }
}

TEST(IsaEncode, ImmediateRoundTrip) {
  for (const int32_t imm : {-32768, -1, 0, 1, 42, 32767}) {
    const uint32_t word = EncI(Opcode::kAddi, kT1, kSp, imm);
    const Instr in = Decode(word);
    EXPECT_EQ(in.op, Opcode::kAddi);
    EXPECT_EQ(in.imm, imm);
  }
}

TEST(IsaEncode, ZeroExtendedImmediates) {
  // ANDI/ORI/XORI/LUI carry unsigned 16-bit immediates.
  for (const Opcode op : {Opcode::kAndi, Opcode::kOri, Opcode::kXori, Opcode::kLui}) {
    ASSERT_TRUE(HasZeroExtendedImm(op));
    const uint32_t word = EncI(op, kT0, op == Opcode::kLui ? 0 : kT1, 0xffff);
    EXPECT_EQ(Decode(word).imm, 0xffff);
  }
  EXPECT_FALSE(HasZeroExtendedImm(Opcode::kAddi));
}

TEST(IsaEncode, BranchOffsets) {
  for (const int32_t offset : {kImm16Min, -1, 0, 1, kImm16Max}) {
    const uint32_t word = EncBranch(Opcode::kBne, kT0, kT1, offset);
    EXPECT_EQ(Decode(word).imm, offset);
  }
}

TEST(IsaEncode, JumpOffsets) {
  for (const int32_t offset : {kImm26Min, -1, 0, 1, kImm26Max}) {
    const uint32_t word = EncJ(Opcode::kJal, offset);
    EXPECT_EQ(Decode(word).imm, offset);
  }
}

TEST(IsaEncode, TcMissCarriesUnsignedIndex) {
  for (const uint32_t index : {0u, 1u, 1000u, (1u << 26) - 1}) {
    const Instr in = Decode(EncTcMiss(index));
    EXPECT_EQ(in.op, Opcode::kTcMiss);
    EXPECT_EQ(static_cast<uint32_t>(in.imm), index);
    EXPECT_TRUE(IsTcMiss(EncTcMiss(index)));
    EXPECT_EQ(TcMissIndex(EncTcMiss(index)), index);
  }
  for (const uint32_t word : {EncNop(), EncHalt(), EncRet(), 0xffffffffu}) {
    EXPECT_FALSE(IsTcMiss(word)) << std::hex << word;
  }
}

// The cache controller stages each word it rewrites as an Instr and hands
// that Instr to the VM with its encoding, so Decode(Encode(in)) must give
// back `in` for every form it builds.
TEST(IsaEncode, ControllerRewritesRoundTrip) {
  std::vector<Instr> forms;
  for (const int32_t offset : {kImm16Min, -1, 0, 1, kImm16Max}) {
    // A branch aimed at a new exit or side-exit slot.
    forms.push_back(Instr{.op = Opcode::kBne, .rs1 = kT0, .rs2 = kA1,
                          .imm = offset});
  }
  for (const int32_t offset : {kImm26Min, -7, 0, 3, kImm26Max}) {
    // A call aimed at its exit slot, and the ARM expansion's jump.
    forms.push_back(Instr{.op = Opcode::kJal, .imm = offset});
    forms.push_back(Instr{.op = Opcode::kJ, .imm = offset});
  }
  for (const int32_t imm : {kImm16Min, 0, 8, kImm16Max}) {
    // A computed jump turned into TCJALR keeps JALR's fields.
    Instr jalr = Decode(EncI(Opcode::kJalr, kRa, kT2, imm));
    jalr.op = Opcode::kTcJalr;
    forms.push_back(jalr);
  }
  for (const uint32_t cell : {0x00001000u, 0x0100fffcu, 0xfffffffcu}) {
    // The ARM call expansion's return-address setup through a cell.
    forms.push_back(Instr{.op = Opcode::kLui, .rd = kRa,
                          .imm = static_cast<int32_t>(cell >> 16)});
    forms.push_back(Instr{.op = Opcode::kOri, .rd = kRa, .rs1 = kRa,
                          .imm = static_cast<int32_t>(cell & 0xffff)});
  }
  forms.push_back(Instr{.op = Opcode::kAddi});  // the dead self-call slot
  for (const uint32_t stub : {0u, 1u, (1u << 26) - 1}) {
    forms.push_back(Instr{.op = Opcode::kTcMiss,
                          .imm = static_cast<int32_t>(stub)});
  }
  for (const Instr& in : forms) {
    EXPECT_EQ(Decode(Encode(in)), in)
        << MnemonicOf(in.op) << " imm " << in.imm;
  }
}

TEST(IsaDecode, UnknownOpcodeIsIllegal) {
  const uint32_t word = 0xffffffffu;
  EXPECT_EQ(Decode(word).op, Opcode::kIllegal);
}

TEST(IsaDecode, WordZeroDecodesToTheAllZeroInstr) {
  // The VM's decode cache starts as fresh zero pages and trusts an all-zero
  // entry as {word 0, Decode(0)}; this pins that invariant.
  const unsigned char zeros[sizeof(Instr)] = {};
  Instr zero_bytes;
  std::memcpy(&zero_bytes, zeros, sizeof zeros);
  EXPECT_EQ(Decode(0), Instr{});
  EXPECT_EQ(zero_bytes, Instr{});
}

TEST(IsaDecode, AllOpcodesRoundTripThroughRandomWords) {
  // Any word decodes; re-encoding a successfully decoded word reproduces it
  // exactly (the rewriter depends on patch-in-place never corrupting).
  util::Rng rng(99);
  int valid = 0;
  for (int i = 0; i < 50'000; ++i) {
    const uint32_t word = rng.Next32();
    const Instr in = Decode(word);
    if (in.op == Opcode::kIllegal) continue;
    ++valid;
    EXPECT_EQ(Encode(in), word) << std::hex << word;
  }
  EXPECT_GT(valid, 1000);
}

TEST(IsaPredicates, Classification) {
  EXPECT_TRUE(IsConditionalBranch(Opcode::kBeq));
  EXPECT_TRUE(IsConditionalBranch(Opcode::kBgeu));
  EXPECT_FALSE(IsConditionalBranch(Opcode::kJ));
  EXPECT_TRUE(IsDirectJump(Opcode::kJ));
  EXPECT_TRUE(IsDirectJump(Opcode::kJal));
  EXPECT_FALSE(IsDirectJump(Opcode::kJalr));
  EXPECT_TRUE(IsControlTransfer(Opcode::kJalr));
  EXPECT_TRUE(IsControlTransfer(Opcode::kHalt));
  EXPECT_TRUE(IsControlTransfer(Opcode::kTcMiss));
  EXPECT_FALSE(IsControlTransfer(Opcode::kAddi));
  EXPECT_FALSE(IsControlTransfer(Opcode::kSys));
}

TEST(IsaPredicates, ReturnIdiom) {
  EXPECT_TRUE(IsReturn(EncRet()));
  EXPECT_FALSE(IsReturn(EncI(Opcode::kJalr, kRa, kT0, 0)));   // call via ptr
  EXPECT_FALSE(IsReturn(EncI(Opcode::kJalr, kZero, kT0, 0))); // computed jump
  EXPECT_FALSE(IsReturn(EncI(Opcode::kJalr, kZero, kRa, 4))); // offset return
}

TEST(IsaBranchMath, TargetAndOffsetAreInverse) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t pc = static_cast<uint32_t>(rng.Below(1 << 20)) * 4;
    const int32_t offset = static_cast<int32_t>(rng.Range(-1000, 1000));
    const uint32_t target = BranchTarget(pc, offset);
    EXPECT_EQ(OffsetFor(pc, target), offset);
  }
}

TEST(IsaDisassemble, ReadableOutput) {
  EXPECT_EQ(Disassemble(EncAlu(AluOp::kAdd, kT0, kA0, kA1), 0), "add    t0, a0, a1");
  EXPECT_EQ(Disassemble(EncI(Opcode::kLw, kT2, kSp, -8), 0), "lw     t2, -8(sp)");
  EXPECT_EQ(Disassemble(EncRet(), 0), "jalr   zero, ra, 0");
  EXPECT_EQ(Disassemble(EncTcMiss(7), 0), "tcmiss #7");
  // Branch targets render as absolute addresses.
  EXPECT_EQ(Disassemble(EncBranch(Opcode::kBeq, kT0, kZero, 3), 0x100),
            "beq    t0, zero, 0x110");
}

TEST(IsaRegisters, NamesAreUniqueAndComplete) {
  for (int r = 0; r < kNumRegs; ++r) {
    EXPECT_NE(RegName(static_cast<uint8_t>(r)), nullptr);
    for (int other = r + 1; other < kNumRegs; ++other) {
      EXPECT_STRNE(RegName(static_cast<uint8_t>(r)),
                   RegName(static_cast<uint8_t>(other)));
    }
  }
}

}  // namespace
}  // namespace sc::isa
