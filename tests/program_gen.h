// Random (but always-terminating) MiniC program generator, shared by the
// property tests (softcache vs native) and the engine differential tests
// (threaded vs interpreter). Programs form a call-DAG with bounded loops, so
// every generated program halts; the checksum printed at the end makes any
// divergence visible in the output bytes as well as the exit code.
#pragma once

#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sc {

class ProgramGen {
 public:
  // A positive `functions` replaces the drawn function count (2-5). The
  // count is drawn either way, so without it every seed emits the source
  // it always did.
  explicit ProgramGen(uint64_t seed, int functions = 0)
      : rng_(seed), functions_(functions) {}

  // The function count of the last Generate (drawn or overridden).
  int functions() const { return nfuncs_; }

  // Generates a complete program: a few globals (including a struct and a
  // char buffer), a call-DAG of functions, and a main that exercises them,
  // calling into the DAG from a loop, and returns a checksum. With
  // arm_safe=false the loop goes through a function-pointer table and also
  // calls a dense switch (computed jumps), which only the SPARC-style
  // prototype supports; with arm_safe=true it calls the functions directly.
  std::string Generate(bool arm_safe = true) {
    arm_safe_ = arm_safe;
    out_.str("");
    out_ << "uint check = 2166136261;\n";
    out_ << "int garr[32];\n";
    out_ << "char gbuf[64];\n";
    out_ << "struct pair { int first; int second; };\n";
    out_ << "struct pair gpair;\n";
    out_ << "int gscalar = " << rng_.Range(-50, 50) << ";\n";
    out_ << "void mix(int v) { check = (check ^ (uint)v) * 16777619; }\n";

    const int drawn = static_cast<int>(rng_.Range(2, 5));
    nfuncs_ = functions_ > 0 ? functions_ : drawn;
    const int nfuncs = nfuncs_;
    for (int i = 0; i < nfuncs; ++i) EmitFunction(i);

    if (!arm_safe_) {
      // Function-pointer dispatch table over the generated functions.
      out_ << "int (*table[" << nfuncs << "])(int, int) = {";
      for (int i = 0; i < nfuncs; ++i) out_ << (i ? ", f" : " f") << i;
      out_ << " };\n";
      // A dense switch (compiles to a jump table -> computed jump).
      out_ << "int classify(int v) {\n  switch (v & 7) {\n";
      for (int c = 0; c < 7; ++c) {
        out_ << "    case " << c << ": return " << rng_.Range(1, 99) << ";\n";
      }
      out_ << "    default: return " << rng_.Range(1, 99) << ";\n  }\n}\n";
    }

    out_ << "int main() {\n";
    const int calls = static_cast<int>(rng_.Range(3, 8));
    for (int i = 0; i < calls; ++i) {
      const int callee = static_cast<int>(rng_.Below(static_cast<uint64_t>(nfuncs)));
      out_ << "  mix(f" << callee << "(" << rng_.Range(-100, 100) << ", "
           << rng_.Range(1, 40) << "));\n";
    }
    if (!arm_safe_) {
      out_ << "  for (int i = 0; i < 40; i++) mix(table[i % " << nfuncs
           << "](i, 5) + classify(i));\n";
    } else {
      // A loop over the call DAG, the ARM-safe stand-in for the table loop:
      // every generated function and a runtime one, in a random order.
      // Calls from inside a loop are what make a procedure-granular cache
      // evict and relink over and over.
      out_ << "  for (int i = 0; i < " << rng_.Range(16, 32) << "; i++) {\n";
      std::vector<int> order(static_cast<size_t>(nfuncs) + 1);
      std::iota(order.begin(), order.end(), 0);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng_.Below(i)]);
      }
      for (const int f : order) {
        if (f == nfuncs) {
          out_ << "    mix((int)crc32(gbuf, (i & 31) + 1));\n";
        } else {
          out_ << "    mix(f" << f << "(i, " << rng_.Range(1, 40) << "));\n";
        }
      }
      out_ << "  }\n";
    }
    out_ << "  gpair.first = (int)check;\n";
    out_ << "  gpair.second = gscalar;\n";
    out_ << "  mix(gpair.first ^ gpair.second);\n";
    out_ << "  for (int i = 0; i < 32; i++) mix(garr[i]);\n";
    out_ << "  for (int i = 0; i < 64; i++) mix((int)gbuf[i]);\n";
    out_ << "  mix((int)crc32(gbuf, 64));\n";
    out_ << "  print_hex(check);\n";
    out_ << "  return (int)(check & 127);\n";
    out_ << "}\n";
    return out_.str();
  }

 private:
  // Functions form a DAG: f<i> may call f<j> only for j < i, so the
  // generator can never build unbounded recursion.
  void EmitFunction(int index) {
    out_ << "int f" << index << "(int a, int b) {\n";
    out_ << "  int x = a;\n  int y = b;\n  int z = 1;\n";
    depth_ = 0;
    max_callee_ = index;  // may call f0..f<index-1>
    call_budget_ = 2;
    const int stmts = static_cast<int>(rng_.Range(3, 9));
    for (int i = 0; i < stmts; ++i) EmitStatement(1);
    out_ << "  return x + y * 3 + z;\n}\n";
  }

  void Indent(int level) {
    for (int i = 0; i < level; ++i) out_ << "  ";
  }

  void EmitStatement(int level) {
    if (level > 3) {
      Indent(level);
      out_ << "x += " << rng_.Range(-5, 5) << ";\n";
      return;
    }
    switch (rng_.Below(8)) {
      case 0: {  // assignment with a random expression
        Indent(level);
        out_ << Var() << " = " << Expr(2) << ";\n";
        break;
      }
      case 1: {  // bounded for loop
        const int bound = static_cast<int>(rng_.Range(1, 20));
        Indent(level);
        out_ << "for (int i" << level << " = 0; i" << level << " < " << bound
             << "; i" << level << "++) {\n";
        EmitStatement(level + 1);
        if (rng_.Chance(1, 2)) EmitStatement(level + 1);
        Indent(level);
        out_ << "}\n";
        break;
      }
      case 2: {  // if/else
        Indent(level);
        out_ << "if (" << Expr(1) << " " << CmpOp() << " " << Expr(1) << ") {\n";
        EmitStatement(level + 1);
        Indent(level);
        if (rng_.Chance(1, 2)) {
          out_ << "} else {\n";
          EmitStatement(level + 1);
          Indent(level);
        }
        out_ << "}\n";
        break;
      }
      case 3: {  // global array write (masked index)
        Indent(level);
        out_ << "garr[(" << Expr(1) << ") & 31] = " << Expr(2) << ";\n";
        break;
      }
      case 4: {  // call a previously defined function (top level only, and
                 // at most twice per function, to bound total work)
        if (max_callee_ > 0 && level == 1 && call_budget_ > 0) {
          --call_budget_;
          Indent(level);
          out_ << Var() << " += f" << rng_.Below(static_cast<uint64_t>(max_callee_))
               << "(" << Expr(1) << ", " << Expr(1) << ");\n";
        } else {
          Indent(level);
          out_ << "z ^= " << Expr(2) << ";\n";
        }
        break;
      }
      case 5: {  // while with a strictly decreasing counter (unique name)
        Indent(level);
        const std::string counter = "w" + std::to_string(next_counter_++);
        out_ << "int " << counter << " = " << rng_.Range(1, 12) << ";\n";
        Indent(level);
        out_ << "while (" << counter << " > 0) {\n";
        EmitStatement(level + 1);
        Indent(level + 1);
        out_ << counter << "--;\n";
        Indent(level);
        out_ << "}\n";
        break;
      }
      case 6: {  // global scalar / struct / char-buffer updates
        Indent(level);
        switch (rng_.Below(3)) {
          case 0:
            out_ << "gscalar = gscalar " << ArithOp() << " (" << Expr(1)
                 << " | 1);\n";
            break;
          case 1:
            out_ << "gbuf[(" << Expr(1) << ") & 63] = (char)(" << Expr(1)
                 << ");\n";
            break;
          default:
            out_ << (rng_.Chance(1, 2) ? "gpair.first" : "gpair.second")
                 << " ^= " << Expr(1) << ";\n";
            break;
        }
        break;
      }
      default: {  // compound update of a local
        Indent(level);
        out_ << Var() << " " << CompoundOp() << " " << Expr(2) << ";\n";
        break;
      }
    }
  }

  std::string Var() {
    static const char* const kVars[] = {"x", "y", "z"};
    return kVars[rng_.Below(3)];
  }

  const char* ArithOp() {
    static const char* const kOps[] = {"+", "-", "*", "/", "%", "^", "&", "|"};
    return kOps[rng_.Below(8)];
  }
  const char* CompoundOp() {
    static const char* const kOps[] = {"+=", "-=", "*=", "^=", "|=", "&="};
    return kOps[rng_.Below(6)];
  }
  const char* CmpOp() {
    static const char* const kOps[] = {"<", ">", "<=", ">=", "==", "!="};
    return kOps[rng_.Below(6)];
  }

  // Expressions: division/modulo are always by (expr | 1) so they cannot
  // trap, and shifts use constant amounts.
  std::string Expr(int depth) {
    if (depth == 0) {
      switch (rng_.Below(5)) {
        case 0: return Var();
        case 1: return std::to_string(rng_.Range(-100, 100));
        case 2: return "gscalar";
        case 3: return "garr[(x ^ y) & 31]";
        default: return "a + b";
      }
    }
    const std::string lhs = Expr(depth - 1);
    const std::string rhs = Expr(depth - 1);
    switch (rng_.Below(7)) {
      case 0: return "(" + lhs + " + " + rhs + ")";
      case 1: return "(" + lhs + " - " + rhs + ")";
      case 2: return "(" + lhs + " * " + rhs + ")";
      case 3: return "(" + lhs + " / ((" + rhs + ") | 1))";
      case 4: return "(" + lhs + " % ((" + rhs + ") | 1))";
      case 5: return "(" + lhs + " << " + std::to_string(rng_.Below(5)) + ")";
      default: return "(" + lhs + " ^ " + rhs + ")";
    }
  }

  util::Rng rng_;
  std::ostringstream out_;
  int depth_ = 0;
  int max_callee_ = 0;
  int call_budget_ = 0;
  int next_counter_ = 0;
  bool arm_safe_ = true;
  int functions_ = 0;
  int nfuncs_ = 0;
};

}  // namespace sc
