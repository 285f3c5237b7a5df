// Decoded-instruction model for the RV64 subset + Snitch extensions used
// by the ISSR kernels: RV64I integer base, M multiply/divide, D
// double-precision float, Zicsr, plus the FREP hardware-loop instruction
// (custom-1 opcode). SSR/ISSR configuration uses the CSR space (csr_map.hpp).
//
// kOpTable holds one row per opcode: mnemonic, operand layout, fixed
// encoding bits, operand register files, memory access and issue kind.
// encode, decode, disassemble, the op_* classes and the core's
// translation (core/compile.cpp, core/fpss.cpp) all read that row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace issr::isa {

/// Integer register indices with RISC-V ABI aliases.
enum Xreg : std::uint8_t {
  kZero = 0, kRa = 1, kSp = 2, kGp = 3, kTp = 4,
  kT0 = 5, kT1 = 6, kT2 = 7,
  kS0 = 8, kS1 = 9,
  kA0 = 10, kA1 = 11, kA2 = 12, kA3 = 13, kA4 = 14, kA5 = 15, kA6 = 16,
  kA7 = 17,
  kS2 = 18, kS3 = 19, kS4 = 20, kS5 = 21, kS6 = 22, kS7 = 23, kS8 = 24,
  kS9 = 25, kS10 = 26, kS11 = 27,
  kT3 = 28, kT4 = 29, kT5 = 30, kT6 = 31,
};

/// Floating-point register indices with ABI aliases. ft0/ft1 are the
/// stream-semantic registers when SSR redirection is enabled.
enum Freg : std::uint8_t {
  kFt0 = 0, kFt1 = 1, kFt2 = 2, kFt3 = 3, kFt4 = 4, kFt5 = 5, kFt6 = 6,
  kFt7 = 7,
  kFs0 = 8, kFs1 = 9,
  kFa0 = 10, kFa1 = 11, kFa2 = 12, kFa3 = 13, kFa4 = 14, kFa5 = 15,
  kFa6 = 16, kFa7 = 17,
  kFs2 = 18, kFs3 = 19, kFs4 = 20, kFs5 = 21, kFs6 = 22, kFs7 = 23,
  kFs8 = 24, kFs9 = 25, kFs10 = 26, kFs11 = 27,
  kFt8 = 28, kFt9 = 29, kFt10 = 30, kFt11 = 31,
};

const char* xreg_name(unsigned idx);
const char* freg_name(unsigned idx);

enum class Op : std::uint8_t {
  kInvalid = 0,
  // RV64I.
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLd, kLbu, kLhu, kLwu,
  kSb, kSh, kSw, kSd,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // M extension (subset).
  kMul, kMulh, kDiv, kDivu, kRem, kRemu,
  // Zicsr.
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // D extension (subset; double precision only).
  kFld, kFsd,
  kFmaddD, kFmsubD, kFnmsubD, kFnmaddD,
  kFaddD, kFsubD, kFmulD, kFdivD, kFsqrtD,
  kFsgnjD, kFsgnjnD, kFsgnjxD, kFminD, kFmaxD,
  kFcvtDW, kFcvtDWu, kFcvtWD, kFcvtWuD,
  kFmvXD, kFmvDX,
  kFeqD, kFltD, kFleD,
  // Snitch FREP hardware loop (custom-1 opcode space).
  kFrep,
};

constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kFrep) + 1;

/// Register file an operand field names.
enum class RegFile : std::uint8_t { kNone, kX, kF };

/// Operand layout of an instruction word: the non-register fields encode
/// packs and decode extracts, and how disassemble prints the operands.
enum class Format : std::uint8_t {
  kFixed,   ///< the fixed bits only (fence, ecall, ebreak)
  kR,       ///< registers only (R and R4 types)
  kI,       ///< imm[11:0] at [31:20]; `rd, rs1, imm`
  kIMem,    ///< kI written `rd, imm(rs1)` (loads, jalr)
  kShift,   ///< shamt[5:0] at [25:20]
  kS,       ///< store offset; `rs2, imm(rs1)`
  kB,       ///< branch offset
  kU,       ///< imm[31:12]
  kJ,       ///< jump offset
  kCsr,     ///< csr at [31:20]; `rd, csr, rs1`
  kCsrImm,  ///< csr at [31:20], zimm[4:0] in the rs1 field
  kFrep,    ///< FREP fields (layout at encode_frep)
};

/// How the integer core issues an instruction; core::decode_one maps it
/// to the core's dispatch class. The kinds from kFpMove on are offloaded
/// to the FPU subsystem.
enum class Issue : std::uint8_t {
  kInvalid,
  kAlu,
  kMul,  ///< ALU op whose rd is busy for the multiplier latency
  kDiv,  ///< ALU op whose rd is busy for the divider latency
  kBranch, kJal, kJalr, kLoad, kStore, kCsr,
  kHalt,  ///< ecall / ebreak
  kFence,
  kFpMove,     ///< FP datapath op without arithmetic (sign injection)
  kFpFlop,     ///< one-flop FP arithmetic
  kFpMul,      ///< fmul.d: one flop, tallied as a multiply
  kFpFma,      ///< fused multiply-add: two flops
  kFpLoad,     ///< fld
  kFpStore,    ///< fsd
  kFpFromInt,  ///< integer operand, FP result
  kFpToInt,    ///< FP operands, integer result
  kFrep,
};

/// Fixed bits of an encoding: `bits` is what encode ORs in with the
/// operand fields; decode accepts a word iff it matches `bits` under
/// `mask`.
/// Fields outside the mask (the rounding mode of FP arithmetic, fsqrt's
/// rs2, fence's operands, ecall/ebreak's rd and rs1) are written
/// canonically and ignored on decode.
struct FixedBits {
  std::uint32_t bits;
  std::uint32_t mask;
};

/// One opcode's encoding, operands and classes. Its semantics live with
/// the units that execute it (core/compile.cpp, core/fpu.cpp).
struct OpInfo {
  Op op;
  const char* name;
  Format format;
  Issue issue;
  FixedBits fixed;
  RegFile rd, rs1, rs2, rs3;
  std::uint8_t mem_bytes = 0;  ///< access size of a load or store
  bool mem_zext = false;       ///< integer load zero-extends
};

/// One row per Op, indexed by the enumerator value.
inline constexpr std::array<OpInfo, kNumOps> kOpTable = [] {
  constexpr RegFile _ = RegFile::kNone, x = RegFile::kX, f = RegFile::kF;
  using Fm = Format;
  using Is = Issue;
  // Fixed-bit builders: major opcode, then funct3, then funct7, all
  // checked by decode.
  constexpr auto enc = [](std::uint32_t opcode) {
    return FixedBits{opcode, 0x7f};
  };
  constexpr auto enc3 = [](std::uint32_t opcode, std::uint32_t funct3) {
    return FixedBits{opcode | funct3 << 12, 0x707f};
  };
  constexpr auto enc7 = [](std::uint32_t opcode, std::uint32_t funct3,
                           std::uint32_t funct7) {
    return FixedBits{opcode | funct3 << 12 | funct7 << 25, 0xfe00707f};
  };
  // Also fixes rs2 (one-source FP ops).
  constexpr auto rs2_is = [](FixedBits e, std::uint32_t rs2) {
    return FixedBits{e.bits | rs2 << 20, e.mask | 0x01f00000};
  };
  constexpr auto shift = [](std::uint32_t funct3, std::uint32_t funct6) {
    return FixedBits{0x13 | funct3 << 12 | funct6 << 26, 0xfc00707f};
  };
  constexpr auto system = [](std::uint32_t imm) {  // ecall, ebreak
    return FixedBits{0x73 | imm << 20, 0xfff0707f};
  };
  constexpr std::uint32_t kRmDyn = 0b111;  // dynamic rounding mode
  // FP arithmetic: rm written dynamic, not checked.
  constexpr auto fp = [](std::uint32_t funct7) {
    return FixedBits{0x53 | kRmDyn << 12 | funct7 << 25, 0xfe00007f};
  };
  // R4 fused multiply-add: fmt D checked, rm written dynamic.
  constexpr auto r4 = [](std::uint32_t opcode) {
    return FixedBits{opcode | kRmDyn << 12 | 0b01u << 25, 0x0600007f};
  };
  return std::array<OpInfo, kNumOps>{{
      {Op::kInvalid, "<invalid>", Fm::kFixed, Is::kInvalid, {0, 0}, _, _, _, _},
      // RV64I.
      {Op::kLui, "lui", Fm::kU, Is::kAlu, enc(0x37), x, _, _, _},
      {Op::kAuipc, "auipc", Fm::kU, Is::kAlu, enc(0x17), x, _, _, _},
      {Op::kJal, "jal", Fm::kJ, Is::kJal, enc(0x6f), x, _, _, _},
      {Op::kJalr, "jalr", Fm::kIMem, Is::kJalr, enc3(0x67, 0), x, x, _, _},
      {Op::kBeq, "beq", Fm::kB, Is::kBranch, enc3(0x63, 0), _, x, x, _},
      {Op::kBne, "bne", Fm::kB, Is::kBranch, enc3(0x63, 1), _, x, x, _},
      {Op::kBlt, "blt", Fm::kB, Is::kBranch, enc3(0x63, 4), _, x, x, _},
      {Op::kBge, "bge", Fm::kB, Is::kBranch, enc3(0x63, 5), _, x, x, _},
      {Op::kBltu, "bltu", Fm::kB, Is::kBranch, enc3(0x63, 6), _, x, x, _},
      {Op::kBgeu, "bgeu", Fm::kB, Is::kBranch, enc3(0x63, 7), _, x, x, _},
      {Op::kLb, "lb", Fm::kIMem, Is::kLoad, enc3(0x03, 0), x, x, _, _, 1},
      {Op::kLh, "lh", Fm::kIMem, Is::kLoad, enc3(0x03, 1), x, x, _, _, 2},
      {Op::kLw, "lw", Fm::kIMem, Is::kLoad, enc3(0x03, 2), x, x, _, _, 4},
      {Op::kLd, "ld", Fm::kIMem, Is::kLoad, enc3(0x03, 3), x, x, _, _, 8},
      {Op::kLbu, "lbu", Fm::kIMem, Is::kLoad, enc3(0x03, 4), x, x, _, _, 1,
       true},
      {Op::kLhu, "lhu", Fm::kIMem, Is::kLoad, enc3(0x03, 5), x, x, _, _, 2,
       true},
      {Op::kLwu, "lwu", Fm::kIMem, Is::kLoad, enc3(0x03, 6), x, x, _, _, 4,
       true},
      {Op::kSb, "sb", Fm::kS, Is::kStore, enc3(0x23, 0), _, x, x, _, 1},
      {Op::kSh, "sh", Fm::kS, Is::kStore, enc3(0x23, 1), _, x, x, _, 2},
      {Op::kSw, "sw", Fm::kS, Is::kStore, enc3(0x23, 2), _, x, x, _, 4},
      {Op::kSd, "sd", Fm::kS, Is::kStore, enc3(0x23, 3), _, x, x, _, 8},
      {Op::kAddi, "addi", Fm::kI, Is::kAlu, enc3(0x13, 0), x, x, _, _},
      {Op::kSlti, "slti", Fm::kI, Is::kAlu, enc3(0x13, 2), x, x, _, _},
      {Op::kSltiu, "sltiu", Fm::kI, Is::kAlu, enc3(0x13, 3), x, x, _, _},
      {Op::kXori, "xori", Fm::kI, Is::kAlu, enc3(0x13, 4), x, x, _, _},
      {Op::kOri, "ori", Fm::kI, Is::kAlu, enc3(0x13, 6), x, x, _, _},
      {Op::kAndi, "andi", Fm::kI, Is::kAlu, enc3(0x13, 7), x, x, _, _},
      {Op::kSlli, "slli", Fm::kShift, Is::kAlu, shift(1, 0x00), x, x, _, _},
      {Op::kSrli, "srli", Fm::kShift, Is::kAlu, shift(5, 0x00), x, x, _, _},
      {Op::kSrai, "srai", Fm::kShift, Is::kAlu, shift(5, 0x10), x, x, _, _},
      {Op::kAdd, "add", Fm::kR, Is::kAlu, enc7(0x33, 0, 0x00), x, x, x, _},
      {Op::kSub, "sub", Fm::kR, Is::kAlu, enc7(0x33, 0, 0x20), x, x, x, _},
      {Op::kSll, "sll", Fm::kR, Is::kAlu, enc7(0x33, 1, 0x00), x, x, x, _},
      {Op::kSlt, "slt", Fm::kR, Is::kAlu, enc7(0x33, 2, 0x00), x, x, x, _},
      {Op::kSltu, "sltu", Fm::kR, Is::kAlu, enc7(0x33, 3, 0x00), x, x, x, _},
      {Op::kXor, "xor", Fm::kR, Is::kAlu, enc7(0x33, 4, 0x00), x, x, x, _},
      {Op::kSrl, "srl", Fm::kR, Is::kAlu, enc7(0x33, 5, 0x00), x, x, x, _},
      {Op::kSra, "sra", Fm::kR, Is::kAlu, enc7(0x33, 5, 0x20), x, x, x, _},
      {Op::kOr, "or", Fm::kR, Is::kAlu, enc7(0x33, 6, 0x00), x, x, x, _},
      {Op::kAnd, "and", Fm::kR, Is::kAlu, enc7(0x33, 7, 0x00), x, x, x, _},
      {Op::kFence, "fence", Fm::kFixed, Is::kFence, enc3(0x0f, 0), _, _, _, _},
      {Op::kEcall, "ecall", Fm::kFixed, Is::kHalt, system(0), _, _, _, _},
      {Op::kEbreak, "ebreak", Fm::kFixed, Is::kHalt, system(1), _, _, _, _},
      // M extension (subset).
      {Op::kMul, "mul", Fm::kR, Is::kMul, enc7(0x33, 0, 0x01), x, x, x, _},
      {Op::kMulh, "mulh", Fm::kR, Is::kMul, enc7(0x33, 1, 0x01), x, x, x, _},
      {Op::kDiv, "div", Fm::kR, Is::kDiv, enc7(0x33, 4, 0x01), x, x, x, _},
      {Op::kDivu, "divu", Fm::kR, Is::kDiv, enc7(0x33, 5, 0x01), x, x, x, _},
      {Op::kRem, "rem", Fm::kR, Is::kDiv, enc7(0x33, 6, 0x01), x, x, x, _},
      {Op::kRemu, "remu", Fm::kR, Is::kDiv, enc7(0x33, 7, 0x01), x, x, x, _},
      // Zicsr.
      {Op::kCsrrw, "csrrw", Fm::kCsr, Is::kCsr, enc3(0x73, 1), x, x, _, _},
      {Op::kCsrrs, "csrrs", Fm::kCsr, Is::kCsr, enc3(0x73, 2), x, x, _, _},
      {Op::kCsrrc, "csrrc", Fm::kCsr, Is::kCsr, enc3(0x73, 3), x, x, _, _},
      {Op::kCsrrwi, "csrrwi", Fm::kCsrImm, Is::kCsr, enc3(0x73, 5), x, _, _, _},
      {Op::kCsrrsi, "csrrsi", Fm::kCsrImm, Is::kCsr, enc3(0x73, 6), x, _, _, _},
      {Op::kCsrrci, "csrrci", Fm::kCsrImm, Is::kCsr, enc3(0x73, 7), x, _, _, _},
      // D extension (subset).
      {Op::kFld, "fld", Fm::kIMem, Is::kFpLoad, enc3(0x07, 3), f, x, _, _, 8},
      {Op::kFsd, "fsd", Fm::kS, Is::kFpStore, enc3(0x27, 3), _, x, f, _, 8},
      {Op::kFmaddD, "fmadd.d", Fm::kR, Is::kFpFma, r4(0x43), f, f, f, f},
      {Op::kFmsubD, "fmsub.d", Fm::kR, Is::kFpFma, r4(0x47), f, f, f, f},
      {Op::kFnmsubD, "fnmsub.d", Fm::kR, Is::kFpFma, r4(0x4b), f, f, f, f},
      {Op::kFnmaddD, "fnmadd.d", Fm::kR, Is::kFpFma, r4(0x4f), f, f, f, f},
      {Op::kFaddD, "fadd.d", Fm::kR, Is::kFpFlop, fp(0x01), f, f, f, _},
      {Op::kFsubD, "fsub.d", Fm::kR, Is::kFpFlop, fp(0x05), f, f, f, _},
      {Op::kFmulD, "fmul.d", Fm::kR, Is::kFpMul, fp(0x09), f, f, f, _},
      {Op::kFdivD, "fdiv.d", Fm::kR, Is::kFpFlop, fp(0x0d), f, f, f, _},
      {Op::kFsqrtD, "fsqrt.d", Fm::kR, Is::kFpFlop, fp(0x2d), f, f, _, _},
      {Op::kFsgnjD, "fsgnj.d", Fm::kR, Is::kFpMove, enc7(0x53, 0, 0x11), f, f,
       f, _},
      {Op::kFsgnjnD, "fsgnjn.d", Fm::kR, Is::kFpMove, enc7(0x53, 1, 0x11), f,
       f, f, _},
      {Op::kFsgnjxD, "fsgnjx.d", Fm::kR, Is::kFpMove, enc7(0x53, 2, 0x11), f,
       f, f, _},
      {Op::kFminD, "fmin.d", Fm::kR, Is::kFpFlop, enc7(0x53, 0, 0x15), f, f,
       f, _},
      {Op::kFmaxD, "fmax.d", Fm::kR, Is::kFpFlop, enc7(0x53, 1, 0x15), f, f,
       f, _},
      {Op::kFcvtDW, "fcvt.d.w", Fm::kR, Is::kFpFromInt, rs2_is(fp(0x69), 0),
       f, x, _, _},
      {Op::kFcvtDWu, "fcvt.d.wu", Fm::kR, Is::kFpFromInt, rs2_is(fp(0x69), 1),
       f, x, _, _},
      {Op::kFcvtWD, "fcvt.w.d", Fm::kR, Is::kFpToInt, rs2_is(fp(0x61), 0), x,
       f, _, _},
      {Op::kFcvtWuD, "fcvt.wu.d", Fm::kR, Is::kFpToInt, rs2_is(fp(0x61), 1),
       x, f, _, _},
      {Op::kFmvXD, "fmv.x.d", Fm::kR, Is::kFpToInt,
       rs2_is(enc7(0x53, 0, 0x71), 0), x, f, _, _},
      {Op::kFmvDX, "fmv.d.x", Fm::kR, Is::kFpFromInt,
       rs2_is(enc7(0x53, 0, 0x79), 0), f, x, _, _},
      {Op::kFeqD, "feq.d", Fm::kR, Is::kFpToInt, enc7(0x53, 2, 0x51), x, f, f,
       _},
      {Op::kFltD, "flt.d", Fm::kR, Is::kFpToInt, enc7(0x53, 1, 0x51), x, f, f,
       _},
      {Op::kFleD, "fle.d", Fm::kR, Is::kFpToInt, enc7(0x53, 0, 0x51), x, f, f,
       _},
      // FREP (custom-1): rd and funct3 are zero.
      {Op::kFrep, "frep", Fm::kFrep, Is::kFrep, {0x2b, 0x7fff}, _, x, _, _},
  }};
}();

static_assert(
    [] {
      for (std::size_t n = 0; n < kNumOps; ++n) {
        if (kOpTable[n].op != static_cast<Op>(n)) return false;
      }
      return true;
    }(),
    "kOpTable rows must follow Op's enumerator order");

/// The row of `op` (the kInvalid row for a value outside the enum).
constexpr const OpInfo& op_info(Op op) {
  const auto n = static_cast<std::size_t>(op);
  return kOpTable[n < kNumOps ? n : 0];
}

constexpr const char* op_name(Op op) { return op_info(op).name; }

/// Instruction classes used by the issue logic.
constexpr bool op_is_branch(Op op) {
  return op_info(op).issue == Issue::kBranch;
}
constexpr bool op_is_int_load(Op op) {
  return op_info(op).issue == Issue::kLoad;
}
constexpr bool op_is_store(Op op) {
  const Issue k = op_info(op).issue;
  return k == Issue::kStore || k == Issue::kFpStore;
}
/// True iff the instruction executes in the FPU subsystem (offloaded).
constexpr bool op_is_fpss(Op op) {
  return op_info(op).issue >= Issue::kFpMove;
}
/// FP comparisons / moves that produce an *integer* result from FP state.
constexpr bool op_fp_to_int(Op op) {
  return op_info(op).issue == Issue::kFpToInt;
}
/// True iff the op writes an FP destination register.
constexpr bool op_writes_fp_rd(Op op) {
  return op_info(op).rd == RegFile::kF;
}
/// True iff the op counts as useful FP compute (FPU datapath arithmetic);
/// the numerator of the paper's FPU-utilization metric.
constexpr bool op_is_fp_compute(Op op) {
  const Issue k = op_info(op).issue;
  return k >= Issue::kFpFlop && k <= Issue::kFpFma;
}
/// Flops performed by one instance (fmadd counts 2).
constexpr unsigned op_flops(Op op) {
  return op_info(op).issue == Issue::kFpFma ? 2 : op_is_fp_compute(op) ? 1 : 0;
}

/// A decoded instruction. Fields not used by an opcode are zero.
struct Inst {
  Op op = Op::kInvalid;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint8_t rs3 = 0;
  std::int32_t imm = 0;     ///< sign-extended immediate / shift amount
  std::uint16_t csr = 0;    ///< CSR address for Zicsr ops
  // FREP fields (packed into the custom encoding).
  std::uint8_t frep_insts = 0;     ///< number of FP instructions in the block
  std::uint8_t frep_stagger_max = 0;   ///< stagger wraps after max+1 iters
  std::uint8_t frep_stagger_mask = 0;  ///< bit0 rd, bit1 rs1, bit2 rs2, bit3 rs3

  bool operator==(const Inst&) const = default;
};

}  // namespace issr::isa
