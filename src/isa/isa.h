// SRK32: the 32-bit RISC instruction set used throughout this repository.
//
// SRK32 stands in for the paper's SPARC/ARM targets. It deliberately has the
// properties the SoftCache design depends on and nothing more:
//   * fixed 32-bit instructions, so a rewriter can patch branches in place;
//   * PC-relative direct branches/jumps whose targets are encoded in the
//     instruction word (the state a rewriter specializes);
//   * a unique call instruction (JAL / JALR-with-link) and a unique return
//     idiom (JALR zero, ra, 0), satisfying the paper's decreed limitation
//     that "procedure call and return use unique instructions";
//   * computed jumps (JALR through a register) that are ambiguous at rewrite
//     time and exercise the hash-table fallback.
//
// Encoding formats (bit 31 is the MSB):
//   R:  op[31:26] rd[25:21] rs1[20:16] rs2[15:11] funct[10:0]
//   I:  op[31:26] rd[25:21] rs1[20:16] imm16[15:0]        (imm sign-extended,
//       except ANDI/ORI/XORI which zero-extend, MIPS-style, so that LUI+ORI
//       can synthesize any 32-bit constant)
//   B:  op[31:26] rs1[25:21] rs2[20:16] imm16[15:0]       (word offset, PC+4)
//   J:  op[31:26] imm26[25:0]                             (word offset, PC+4)
//
// Two opcodes exist purely for the software cache runtime and are never
// produced by the compiler or assembler-visible programs:
//   TCMISS  (J format; imm26 = unsigned stub index) — a cache-miss stub.
//   TCJALR  (I format; same fields as JALR) — a computed jump that must be
//            resolved through the cache controller's hash table.
#pragma once

#include <cstdint>
#include <string>

namespace sc::isa {

inline constexpr int kNumRegs = 32;
inline constexpr uint32_t kInstrBytes = 4;

// Architectural register numbers with ABI roles (see docs in README).
enum Reg : uint8_t {
  kZero = 0,  // hardwired zero
  kAt = 1,    // assembler temporary (reserved for sasm pseudo-ops)
  kRv = 2,    // return value
  kA0 = 3, kA1 = 4, kA2 = 5, kA3 = 6, kA4 = 7, kA5 = 8,           // arguments
  kT0 = 9, kT1 = 10, kT2 = 11, kT3 = 12, kT4 = 13, kT5 = 14,     // caller-saved
  kT6 = 15, kT7 = 16, kT8 = 17,
  kS0 = 18, kS1 = 19, kS2 = 20, kS3 = 21, kS4 = 22, kS5 = 23,    // callee-saved
  kS6 = 24, kS7 = 25, kS8 = 26,
  kK0 = 27,   // reserved for the cache-controller runtime
  kGp = 28,   // global pointer
  kSp = 29,   // stack pointer
  kFp = 30,   // frame pointer
  kRa = 31,   // return address
};

enum class Opcode : uint8_t {
  kIllegal = 0,
  kAlu,    // R: rd = rs1 <funct> rs2
  kAddi,   // I: rd = rs1 + imm
  kAndi,
  kOri,
  kXori,
  kSlti,
  kSltiu,
  kSlli,   // I: shamt = imm & 31
  kSrli,
  kSrai,
  kLui,    // I: rd = imm << 16 (rs1 ignored)
  kLw,     // I: rd = mem32[rs1 + imm]
  kLh,
  kLhu,
  kLb,
  kLbu,
  kSw,     // I: mem32[rs1 + imm] = rd   (rd field holds the source register)
  kSh,
  kSb,
  kBeq,    // B: if (rs1 == rs2) pc = pc + 4 + imm*4
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJ,      // J: pc = pc + 4 + imm*4
  kJal,    // J: ra = pc + 4; pc = pc + 4 + imm*4
  kJalr,   // I: t = rs1 + imm; rd = pc + 4; pc = t & ~3
  kSys,    // I: system call, service number = imm (see vm/syscalls.h)
  kHalt,   // stop the machine (exit code in a0)
  kTcMiss, // J: softcache miss stub; imm26 = unsigned stub index
  kTcJalr, // I: computed jump resolved via the CC hash table
  kCount,
};

enum class AluOp : uint16_t {
  kAdd = 0,
  kSub,
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kSlt,
  kSltu,
  kMul,
  kDiv,
  kDivu,
  kRem,
  kRemu,
  kCount,
};

enum class Format : uint8_t { kR, kI, kB, kJ };

// Decoded instruction. `imm` holds:
//   I format: the sign-extended 16-bit immediate (shift amount for shifts);
//   B/J formats: the signed *word* offset relative to PC+4;
//   TCMISS: the unsigned 26-bit stub index.
struct Instr {
  Opcode op = Opcode::kIllegal;
  AluOp funct = AluOp::kAdd;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int32_t imm = 0;

  bool operator==(const Instr&) const = default;
};

// Instruction-class predicates used by the chunker and rewriter.
Format FormatOf(Opcode op);
bool IsConditionalBranch(Opcode op);  // BEQ..BGEU
bool IsDirectJump(Opcode op);         // J, JAL
bool IsControlTransfer(Opcode op);    // branches, jumps, JALR/TCJALR, HALT, SYS(exit)
const char* MnemonicOf(Opcode op);
const char* MnemonicOf(AluOp funct);
const char* RegName(uint8_t reg);

// Immediate ranges.
inline constexpr int32_t kImm16Min = -32768;
inline constexpr int32_t kImm16Max = 32767;
inline constexpr int32_t kImm26Min = -(1 << 25);
inline constexpr int32_t kImm26Max = (1 << 25) - 1;
bool FitsImm16(int64_t v);
bool FitsImm26(int64_t v);
// True for ANDI/ORI/XORI/LUI, whose 16-bit immediate is zero-extended.
bool HasZeroExtendedImm(Opcode op);

// Encodes `instr` into a 32-bit word. SC_CHECKs field ranges — callers
// (assembler/compiler/rewriter) must have validated user input already.
uint32_t Encode(const Instr& instr);

// Decodes a word. Never fails: unknown opcodes decode to op == kIllegal.
Instr Decode(uint32_t word);

// Branch/jump target arithmetic, shared by the VM, chunker and rewriter.
inline uint32_t BranchTarget(uint32_t pc, int32_t word_offset) {
  return pc + 4 + static_cast<uint32_t>(word_offset) * 4;
}
// Word offset that makes an instruction at `pc` reach `target`.
int32_t OffsetFor(uint32_t pc, uint32_t target);

// Human-readable disassembly of one instruction at address `pc`.
std::string Disassemble(uint32_t word, uint32_t pc);

// Convenience encoders (used heavily by codegen, the rewriter, and tests).
uint32_t EncAlu(AluOp funct, uint8_t rd, uint8_t rs1, uint8_t rs2);
uint32_t EncI(Opcode op, uint8_t rd, uint8_t rs1, int32_t imm);
uint32_t EncBranch(Opcode op, uint8_t rs1, uint8_t rs2, int32_t word_offset);
uint32_t EncJ(Opcode op, int32_t word_offset);
uint32_t EncTcMiss(uint32_t stub_index);
// A TCMISS word and its stub index, read off the opcode and imm26 fields
// without a full decode: Decode(word).op == kTcMiss and Decode(word).imm.
inline bool IsTcMiss(uint32_t word) {
  return word >> 26 == static_cast<uint32_t>(Opcode::kTcMiss);
}
inline uint32_t TcMissIndex(uint32_t word) { return word & 0x03ffffff; }
inline uint32_t EncNop() { return EncI(Opcode::kAddi, kZero, kZero, 0); }
inline uint32_t EncHalt() { return Encode(Instr{.op = Opcode::kHalt}); }
inline uint32_t EncRet() { return EncI(Opcode::kJalr, kZero, kRa, 0); }

// True iff `word` decodes to the return idiom JALR zero, ra, 0. The paper's
// programming-model limitation makes this the *only* way compiled code
// returns from a procedure, so the rewriter can rely on it.
bool IsReturn(uint32_t word);

}  // namespace sc::isa
