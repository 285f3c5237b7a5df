// ISA tests: golden encodings against the RISC-V spec, encode/decode
// round-trip properties over randomized instructions and against an
// independent field packer, fingerprint pins of decode, disassembly,
// encode and the core's translation, assembler label resolution and li
// expansion.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/compile.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "isa/program.hpp"

namespace issr::isa {
namespace {

Inst mk(Op op, unsigned rd = 0, unsigned rs1 = 0, unsigned rs2 = 0,
        std::int32_t imm = 0) {
  Inst i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

// Golden encodings cross-checked against the RISC-V ISA manual / gas.
TEST(Encoding, GoldenValues) {
  EXPECT_EQ(encode(mk(Op::kAddi, 1, 0, 0, 1)), 0x00100093u);  // addi ra,zero,1
  EXPECT_EQ(encode(mk(Op::kAddi, 0, 0, 0, 0)), 0x00000013u);  // nop
  EXPECT_EQ(encode(mk(Op::kAdd, 3, 1, 2)), 0x002081b3u);      // add gp,ra,sp
  EXPECT_EQ(encode(mk(Op::kLui, 5, 0, 0, 0x12345000)),
            0x123452b7u);                                     // lui t0,0x12345
  EXPECT_EQ(encode(mk(Op::kLw, 6, 5, 0, 16)), 0x0102a303u);   // lw t1,16(t0)
  EXPECT_EQ(encode(mk(Op::kSw, 0, 5, 6, 16)), 0x0062a823u);   // sw t1,16(t0)
  EXPECT_EQ(encode(mk(Op::kEcall)), 0x00000073u);
  EXPECT_EQ(encode(mk(Op::kEbreak)), 0x00100073u);
  EXPECT_EQ(encode(mk(Op::kFld, 1, 10, 0, 8)), 0x00853087u);  // fld ft1,8(a0)
  EXPECT_EQ(encode(mk(Op::kMul, 10, 11, 12)), 0x02c58533u);   // mul a0,a1,a2
}

TEST(Encoding, BranchOffsetEncoding) {
  // bne x1, x2, -4 (backward branch to previous instruction).
  const auto word = encode(mk(Op::kBne, 0, 1, 2, -4));
  const auto back = decode(word);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, Op::kBne);
  EXPECT_EQ(back->imm, -4);
}

TEST(Encoding, JalRange) {
  for (const std::int32_t off : {-1048576, -4, 0, 4, 1048574}) {
    const auto word = encode(mk(Op::kJal, 1, 0, 0, off & ~1));
    const auto back = decode(word);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->imm, off & ~1);
  }
}

TEST(Encoding, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode(0x00000000).has_value());
  EXPECT_FALSE(decode(0xffffffff).has_value());
}

TEST(Encoding, FrepFieldsRoundTrip) {
  Inst f;
  f.op = Op::kFrep;
  f.rs1 = 7;
  f.frep_insts = 3;
  f.frep_stagger_max = 5;
  f.frep_stagger_mask = 0b1001;
  const auto back = decode(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Encoding, FrepBoundaryFields) {
  // Every field at its 4-bit ceiling survives the round trip.
  Inst f;
  f.op = Op::kFrep;
  f.rs1 = 31;
  f.frep_insts = 15;
  f.frep_stagger_max = 15;
  f.frep_stagger_mask = 15;
  const auto back = decode(encode(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Encoding, FrepZeroInstsDecodesAsNoOpLoop) {
  // The assembler and encoder never produce frep_insts == 0, but the
  // encoding can hold it and the sequencer defines it as an empty loop
  // (tests/test_core.cpp FrepEdge.ZeroInstsIsNoOpLoop) — decode must not
  // turn it into a fetch fault. Build the word by clearing the insts
  // field of a legal FREP.
  Inst f;
  f.op = Op::kFrep;
  f.rs1 = 5;
  f.frep_insts = 1;
  const insn_word_t word = encode(f) & ~(0xFu << 20);
  const auto back = decode(word);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, Op::kFrep);
  EXPECT_EQ(back->frep_insts, 0);
  EXPECT_EQ(back->rs1, 5);
}

TEST(Encoding, CsrImmediateForms) {
  Inst i;
  i.op = Op::kCsrrsi;
  i.rd = 3;
  i.csr = 0x7c0;
  i.imm = 17;
  const auto back = decode(encode(i));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, i);
}

// Every opcode, in enum order (all of Op but kInvalid).
constexpr Op kAllOps[] = {
    Op::kLui, Op::kAuipc, Op::kJal, Op::kJalr, Op::kBeq, Op::kBne,
    Op::kBlt, Op::kBge, Op::kBltu, Op::kBgeu, Op::kLb, Op::kLh, Op::kLw,
    Op::kLd, Op::kLbu, Op::kLhu, Op::kLwu, Op::kSb, Op::kSh, Op::kSw,
    Op::kSd, Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori, Op::kOri,
    Op::kAndi, Op::kSlli, Op::kSrli, Op::kSrai, Op::kAdd, Op::kSub,
    Op::kSll, Op::kSlt, Op::kSltu, Op::kXor, Op::kSrl, Op::kSra, Op::kOr,
    Op::kAnd, Op::kFence, Op::kEcall, Op::kEbreak, Op::kMul, Op::kMulh,
    Op::kDiv, Op::kDivu, Op::kRem, Op::kRemu, Op::kCsrrw, Op::kCsrrs, Op::kCsrrc, Op::kCsrrwi,
    Op::kCsrrsi, Op::kCsrrci, Op::kFld, Op::kFsd, Op::kFmaddD,
    Op::kFmsubD, Op::kFnmsubD, Op::kFnmaddD, Op::kFaddD, Op::kFsubD,
    Op::kFmulD, Op::kFdivD, Op::kFsqrtD, Op::kFsgnjD, Op::kFsgnjnD,
    Op::kFsgnjxD, Op::kFminD, Op::kFmaxD, Op::kFcvtDW, Op::kFcvtDWu,
    Op::kFcvtWD, Op::kFcvtWuD, Op::kFmvXD, Op::kFmvDX, Op::kFeqD,
    Op::kFltD, Op::kFleD, Op::kFrep};

/// One instruction of `op` with randomized, encodable fields (fields the
/// opcode does not carry are zero).
Inst draw_inst(Op op, Rng& rng) {
  Inst i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
  i.rs1 = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
  i.rs2 = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
  i.rs3 = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
  switch (op) {
    case Op::kLui: case Op::kAuipc:
      i.rs1 = i.rs2 = i.rs3 = 0;
      i.imm = static_cast<std::int32_t>(rng.uniform_int(0, 0xfffff) << 12);
      break;
    case Op::kJal:
      i.rs1 = i.rs2 = i.rs3 = 0;
      i.imm = static_cast<std::int32_t>(
                  static_cast<std::int64_t>(rng.uniform_int(0, (1 << 20) - 1)) -
                  (1 << 19)) *
              2;
      break;
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
      i.rd = i.rs3 = 0;
      i.imm = static_cast<std::int32_t>(
                  static_cast<std::int64_t>(rng.uniform_int(0, (1 << 12) - 1)) -
                  (1 << 11)) *
              2;
      break;
    case Op::kSlli: case Op::kSrli: case Op::kSrai:
      i.rs2 = i.rs3 = 0;
      i.imm = static_cast<std::int32_t>(rng.uniform_int(0, 63));
      break;
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
      i.rs2 = i.rs3 = 0;
      i.csr = static_cast<std::uint16_t>(rng.uniform_int(0, 0xfff));
      i.imm = 0;
      break;
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
      i.rs1 = i.rs2 = i.rs3 = 0;
      i.csr = static_cast<std::uint16_t>(rng.uniform_int(0, 0xfff));
      i.imm = static_cast<std::int32_t>(rng.uniform_int(0, 31));
      break;
    case Op::kEcall: case Op::kEbreak: case Op::kFence:
      i = Inst{};
      i.op = op;
      break;
    case Op::kFrep:
      i.rd = i.rs2 = i.rs3 = 0;
      i.frep_insts = static_cast<std::uint8_t>(rng.uniform_int(1, 15));
      i.frep_stagger_max =
          static_cast<std::uint8_t>(rng.uniform_int(0, 15));
      i.frep_stagger_mask =
          static_cast<std::uint8_t>(rng.uniform_int(0, 15));
      break;
    case Op::kFsqrtD: case Op::kFcvtWD: case Op::kFcvtWuD: case Op::kFmvXD:
    case Op::kFcvtDW: case Op::kFcvtDWu: case Op::kFmvDX:
      i.rs2 = i.rs3 = 0;
      break;
    case Op::kFmaddD: case Op::kFmsubD: case Op::kFnmsubD:
    case Op::kFnmaddD:
      break;  // all four registers used
    default: {
      // I/S-type immediates; R-type ops ignore imm.
      i.rs3 = 0;
      const bool is_i_type =
          op_is_int_load(op) || op == Op::kAddi || op == Op::kSlti ||
          op == Op::kSltiu || op == Op::kXori || op == Op::kOri ||
          op == Op::kAndi || op == Op::kJalr || op == Op::kFld;
      const bool has_imm = is_i_type || op_is_store(op);
      i.imm = has_imm ? static_cast<std::int32_t>(
                            static_cast<std::int64_t>(
                                rng.uniform_int(0, (1 << 12) - 1)) -
                            (1 << 11))
                      : 0;
      if (op_is_store(op) || op_is_branch(op)) i.rd = 0;
      if (is_i_type) i.rs2 = 0;  // rs2 not encoded in I-type
      break;
    }
  }
  return i;
}

/// The seed the round-trip property draws `op`'s instructions from.
Rng round_trip_rng(Op op) {
  return Rng(static_cast<std::uint64_t>(op) * 977 + 3);
}

// Property: encode/decode round-trips across the full opcode set with
// randomized fields.
class EncodeDecodeRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(EncodeDecodeRoundTrip, RandomizedFields) {
  const Op op = GetParam();
  Rng rng = round_trip_rng(op);
  for (int trial = 0; trial < 50; ++trial) {
    const Inst i = draw_inst(op, rng);
    const auto word = encode(i);
    const auto back = decode(word);
    ASSERT_TRUE(back.has_value()) << op_name(op) << " word=" << word;
    EXPECT_EQ(*back, i) << op_name(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EncodeDecodeRoundTrip, ::testing::ValuesIn(kAllOps),
    [](const auto& info) {
      std::string n = op_name(info.param);
      for (auto& ch : n) if (ch == '.') ch = '_';
      return n;
    });

// --- Pins --------------------------------------------------------------------
//
// FNV-1a fingerprints of everything the ISA layer and the core's
// translation produce, so a restructuring of either can be checked to
// move no bit. Values were captured before the opcode table replaced the
// per-opcode switches and must never be edited to make a change pass.

/// FNV-1a over 64-bit words (little-endian byte order) and raw bytes.
class Fnv1a {
 public:
  void add(std::uint64_t w) {
    for (unsigned b = 0; b < 8; ++b) add_byte((w >> (8 * b)) & 0xffu);
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add_byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void add_byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_inst(Fnv1a& h, const Inst& i) {
  h.add(static_cast<std::uint64_t>(i.op));
  h.add(i.rd);
  h.add(i.rs1);
  h.add(i.rs2);
  h.add(i.rs3);
  h.add(static_cast<std::uint32_t>(i.imm));
  h.add(i.csr);
  h.add(i.frep_insts);
  h.add(i.frep_stagger_max);
  h.add(i.frep_stagger_mask);
}

/// The sampled words: every major opcode x funct3 x funct7 with rs2 in
/// {0, 1, 2, 31} (rd and rs1 from a fixed seed), then 10^6 seeded random
/// words.
template <class F>
void for_each_sampled_word(F&& f) {
  Rng fields(2501);
  for (std::uint32_t opcode = 0; opcode < 128; ++opcode) {
    for (std::uint32_t funct3 = 0; funct3 < 8; ++funct3) {
      for (std::uint32_t funct7 = 0; funct7 < 128; ++funct7) {
        for (const std::uint32_t rs2 : {0u, 1u, 2u, 31u}) {
          const auto rd = static_cast<std::uint32_t>(fields.uniform_int(0, 31));
          const auto rs1 =
              static_cast<std::uint32_t>(fields.uniform_int(0, 31));
          f((funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) |
            (rd << 7) | opcode);
        }
      }
    }
  }
  Rng words(2502);
  for (int n = 0; n < 1'000'000; ++n) {
    f(static_cast<insn_word_t>(words.engine()()));
  }
}

TEST(IsaPins, Decode) {
  Fnv1a h;
  std::uint64_t accepted = 0;
  for_each_sampled_word([&](insn_word_t w) {
    const auto i = decode(w);
    if (!i) {
      h.add(~0ull);
      return;
    }
    ++accepted;
    add_inst(h, *i);
  });
  EXPECT_EQ(accepted, 97584u);
  EXPECT_EQ(h.value(), 0xa66f83d1700c6f40ull);
}

TEST(IsaPins, Disassembly) {
  Fnv1a h;
  for_each_sampled_word([&](insn_word_t w) {
    if (const auto i = decode(w)) h.add(disassemble(*i));
  });
  EXPECT_EQ(h.value(), 0xd59777dd8a6a99efull);
}

TEST(IsaPins, Encode) {
  Fnv1a h;
  for (const Op op : kAllOps) {
    Rng rng = round_trip_rng(op);
    for (int trial = 0; trial < 50; ++trial) h.add(encode(draw_inst(op, rng)));
  }
  EXPECT_EQ(h.value(), 0xec2a5128cddd2cdcull);
}

TEST(IsaPins, Translation) {
  // Every opcode four times with drawn fields, then every CSR form on
  // the fpss-sync, barrier and an SSR config CSR.
  Assembler a;
  Rng rng(2503);
  for (const Op op : kAllOps) {
    for (int n = 0; n < 4; ++n) a.emit(draw_inst(op, rng));
  }
  for (const std::uint16_t csr : {kCsrFpssSync, kCsrBarrier, kCsrSsrEnable}) {
    a.csrrw(kT0, csr, kT1);
    a.csrrs(kZero, csr, kA0);
    a.csrrc(kA1, csr, kZero);
    a.csrrwi(kZero, csr, 1);
    a.csrrsi(kT2, csr, 0);
    a.csrrci(kA2, csr, 31);
  }
  const Program prog = a.assemble();
  const core::CompiledProgram cp(prog);
  ASSERT_EQ(cp.size(), prog.size());
  Fnv1a h;
  for (std::size_t n = 0; n < cp.size(); ++n) {
    const addr_t pc = Program::kBaseAddr + 4 * n;
    const core::DecodedInst& d = cp.decoded(pc);
    add_inst(h, d.inst);
    h.add(static_cast<std::uint64_t>(d.cls));
    h.add(d.flags);
    h.add(d.load_bytes);
    h.add(static_cast<std::uint64_t>(d.load_ext));
    h.add(d.wb_latency_kind);
    const core::FpssMicroOp& m = cp.mop(pc);
    add_inst(h, m.inst);
    for (const std::uint8_t s : m.srcs) h.add(s);
    h.add(m.n_src);
    h.add(static_cast<std::uint64_t>(m.kind));
    h.add(m.mflags);
    h.add(m.flops);
  }
  EXPECT_EQ(h.value(), 0x8bd69d18d9580c96ull);
}

// --- Independent reference packer ---------------------------------------------
//
// The RISC-V base layouts (R/I/S/B/U/J) packed field by field, written
// without src/isa: 7-bit opcode, 12-bit I-immediate. The extensions reuse
// them: R4 is R with funct7 = rs3:fmt; a shift is I with imm =
// funct6:shamt; a CSR access is I with imm = csr (and the zimm in the rs1
// field for the immediate forms); FREP is I with imm =
// stagger_mask:stagger_max:insts and rd = funct3 = 0.

std::uint32_t pack_r(std::uint32_t funct7, std::uint32_t rs2,
                     std::uint32_t rs1, std::uint32_t funct3,
                     std::uint32_t rd, std::uint32_t opcode) {
  return (opcode & 0x7f) | ((rd & 0x1f) << 7) | ((funct3 & 0x7) << 12) |
         ((rs1 & 0x1f) << 15) | ((rs2 & 0x1f) << 20) |
         ((funct7 & 0x7f) << 25);
}

std::uint32_t pack_i(std::uint32_t imm11_0, std::uint32_t rs1,
                     std::uint32_t funct3, std::uint32_t rd,
                     std::uint32_t opcode) {
  return (opcode & 0x7f) | ((rd & 0x1f) << 7) | ((funct3 & 0x7) << 12) |
         ((rs1 & 0x1f) << 15) | ((imm11_0 & 0xfff) << 20);
}

std::uint32_t pack_s(std::uint32_t imm11_0, std::uint32_t rs2,
                     std::uint32_t rs1, std::uint32_t funct3,
                     std::uint32_t opcode) {
  return (opcode & 0x7f) | ((imm11_0 & 0x1f) << 7) | ((funct3 & 0x7) << 12) |
         ((rs1 & 0x1f) << 15) | ((rs2 & 0x1f) << 20) |
         (((imm11_0 >> 5) & 0x7f) << 25);
}

std::uint32_t pack_b(std::uint32_t imm12_1, std::uint32_t rs2,
                     std::uint32_t rs1, std::uint32_t funct3,
                     std::uint32_t opcode) {
  return (opcode & 0x7f) | (((imm12_1 >> 10) & 0x1) << 7) |
         ((imm12_1 & 0xf) << 8) | ((funct3 & 0x7) << 12) |
         ((rs1 & 0x1f) << 15) | ((rs2 & 0x1f) << 20) |
         (((imm12_1 >> 4) & 0x3f) << 25) | (((imm12_1 >> 11) & 0x1) << 31);
}

std::uint32_t pack_u(std::uint32_t imm31_12, std::uint32_t rd,
                     std::uint32_t opcode) {
  return (opcode & 0x7f) | ((rd & 0x1f) << 7) | ((imm31_12 & 0xfffff) << 12);
}

std::uint32_t pack_j(std::uint32_t imm20_1, std::uint32_t rd,
                     std::uint32_t opcode) {
  return (opcode & 0x7f) | ((rd & 0x1f) << 7) |
         (((imm20_1 >> 11) & 0xff) << 12) | (((imm20_1 >> 10) & 0x1) << 20) |
         ((imm20_1 & 0x3ff) << 21) | (((imm20_1 >> 19) & 0x1) << 31);
}

enum class Lay : std::uint8_t {
  kR, kR4, kI, kShift, kS, kB, kU, kJ, kCsr, kCsrImm, kFrep, kFixed,
};

/// One opcode in the reference's terms. `hi` is funct7 (R), fmt (R4),
/// funct6 (shift) or the whole imm[11:0] (fixed words); `rs2` is the
/// fixed rs2 field of a one-source R-type op, or -1 if rs2 is an operand.
struct RefOp {
  Op op;
  Lay lay;
  std::uint32_t opcode;
  std::uint32_t funct3 = 0;
  std::uint32_t hi = 0;
  int rs2 = -1;
};

// From the RISC-V unprivileged ISA manual's opcode map (RV64I, M, D,
// Zicsr); FP arithmetic uses the dynamic rounding mode (funct3 = 7).
constexpr RefOp kRefOps[] = {
    {Op::kLui, Lay::kU, 0x37},         {Op::kAuipc, Lay::kU, 0x17},
    {Op::kJal, Lay::kJ, 0x6f},         {Op::kJalr, Lay::kI, 0x67, 0},
    {Op::kBeq, Lay::kB, 0x63, 0},      {Op::kBne, Lay::kB, 0x63, 1},
    {Op::kBlt, Lay::kB, 0x63, 4},      {Op::kBge, Lay::kB, 0x63, 5},
    {Op::kBltu, Lay::kB, 0x63, 6},     {Op::kBgeu, Lay::kB, 0x63, 7},
    {Op::kLb, Lay::kI, 0x03, 0},       {Op::kLh, Lay::kI, 0x03, 1},
    {Op::kLw, Lay::kI, 0x03, 2},       {Op::kLd, Lay::kI, 0x03, 3},
    {Op::kLbu, Lay::kI, 0x03, 4},      {Op::kLhu, Lay::kI, 0x03, 5},
    {Op::kLwu, Lay::kI, 0x03, 6},      {Op::kSb, Lay::kS, 0x23, 0},
    {Op::kSh, Lay::kS, 0x23, 1},       {Op::kSw, Lay::kS, 0x23, 2},
    {Op::kSd, Lay::kS, 0x23, 3},       {Op::kAddi, Lay::kI, 0x13, 0},
    {Op::kSlti, Lay::kI, 0x13, 2},     {Op::kSltiu, Lay::kI, 0x13, 3},
    {Op::kXori, Lay::kI, 0x13, 4},     {Op::kOri, Lay::kI, 0x13, 6},
    {Op::kAndi, Lay::kI, 0x13, 7},     {Op::kSlli, Lay::kShift, 0x13, 1, 0x00},
    {Op::kSrli, Lay::kShift, 0x13, 5, 0x00},
    {Op::kSrai, Lay::kShift, 0x13, 5, 0x10},
    {Op::kAdd, Lay::kR, 0x33, 0, 0x00}, {Op::kSub, Lay::kR, 0x33, 0, 0x20},
    {Op::kSll, Lay::kR, 0x33, 1, 0x00}, {Op::kSlt, Lay::kR, 0x33, 2, 0x00},
    {Op::kSltu, Lay::kR, 0x33, 3, 0x00}, {Op::kXor, Lay::kR, 0x33, 4, 0x00},
    {Op::kSrl, Lay::kR, 0x33, 5, 0x00}, {Op::kSra, Lay::kR, 0x33, 5, 0x20},
    {Op::kOr, Lay::kR, 0x33, 6, 0x00},  {Op::kAnd, Lay::kR, 0x33, 7, 0x00},
    {Op::kFence, Lay::kFixed, 0x0f, 0, 0},
    {Op::kEcall, Lay::kFixed, 0x73, 0, 0},
    {Op::kEbreak, Lay::kFixed, 0x73, 0, 1},
    {Op::kMul, Lay::kR, 0x33, 0, 0x01}, {Op::kMulh, Lay::kR, 0x33, 1, 0x01},
    {Op::kDiv, Lay::kR, 0x33, 4, 0x01}, {Op::kDivu, Lay::kR, 0x33, 5, 0x01},
    {Op::kRem, Lay::kR, 0x33, 6, 0x01}, {Op::kRemu, Lay::kR, 0x33, 7, 0x01},
    {Op::kCsrrw, Lay::kCsr, 0x73, 1},  {Op::kCsrrs, Lay::kCsr, 0x73, 2},
    {Op::kCsrrc, Lay::kCsr, 0x73, 3},  {Op::kCsrrwi, Lay::kCsrImm, 0x73, 5},
    {Op::kCsrrsi, Lay::kCsrImm, 0x73, 6},
    {Op::kCsrrci, Lay::kCsrImm, 0x73, 7},
    {Op::kFld, Lay::kI, 0x07, 3},      {Op::kFsd, Lay::kS, 0x27, 3},
    {Op::kFmaddD, Lay::kR4, 0x43, 7, 1}, {Op::kFmsubD, Lay::kR4, 0x47, 7, 1},
    {Op::kFnmsubD, Lay::kR4, 0x4b, 7, 1},
    {Op::kFnmaddD, Lay::kR4, 0x4f, 7, 1},
    {Op::kFaddD, Lay::kR, 0x53, 7, 0x01}, {Op::kFsubD, Lay::kR, 0x53, 7, 0x05},
    {Op::kFmulD, Lay::kR, 0x53, 7, 0x09}, {Op::kFdivD, Lay::kR, 0x53, 7, 0x0d},
    {Op::kFsqrtD, Lay::kR, 0x53, 7, 0x2d, 0},
    {Op::kFsgnjD, Lay::kR, 0x53, 0, 0x11},
    {Op::kFsgnjnD, Lay::kR, 0x53, 1, 0x11},
    {Op::kFsgnjxD, Lay::kR, 0x53, 2, 0x11},
    {Op::kFminD, Lay::kR, 0x53, 0, 0x15}, {Op::kFmaxD, Lay::kR, 0x53, 1, 0x15},
    {Op::kFcvtDW, Lay::kR, 0x53, 7, 0x69, 0},
    {Op::kFcvtDWu, Lay::kR, 0x53, 7, 0x69, 1},
    {Op::kFcvtWD, Lay::kR, 0x53, 7, 0x61, 0},
    {Op::kFcvtWuD, Lay::kR, 0x53, 7, 0x61, 1},
    {Op::kFmvXD, Lay::kR, 0x53, 0, 0x71, 0},
    {Op::kFmvDX, Lay::kR, 0x53, 0, 0x79, 0},
    {Op::kFeqD, Lay::kR, 0x53, 2, 0x51}, {Op::kFltD, Lay::kR, 0x53, 1, 0x51},
    {Op::kFleD, Lay::kR, 0x53, 0, 0x51},
    {Op::kFrep, Lay::kFrep, 0x2b},
};

std::uint32_t ref_encode(const RefOp& s, const Inst& i) {
  const auto imm = static_cast<std::uint32_t>(i.imm);
  switch (s.lay) {
    case Lay::kR:
      return pack_r(s.hi, s.rs2 >= 0 ? static_cast<std::uint32_t>(s.rs2) : i.rs2,
                    i.rs1, s.funct3, i.rd, s.opcode);
    case Lay::kR4:
      return pack_r((static_cast<std::uint32_t>(i.rs3) << 2) | s.hi, i.rs2,
                    i.rs1, s.funct3, i.rd, s.opcode);
    case Lay::kI: return pack_i(imm, i.rs1, s.funct3, i.rd, s.opcode);
    case Lay::kShift:
      return pack_i((s.hi << 6) | imm, i.rs1, s.funct3, i.rd, s.opcode);
    case Lay::kS: return pack_s(imm, i.rs2, i.rs1, s.funct3, s.opcode);
    case Lay::kB:
      return pack_b(static_cast<std::uint32_t>(i.imm >> 1), i.rs2, i.rs1,
                    s.funct3, s.opcode);
    case Lay::kU:
      return pack_u(static_cast<std::uint32_t>(i.imm >> 12), i.rd, s.opcode);
    case Lay::kJ:
      return pack_j(static_cast<std::uint32_t>(i.imm >> 1), i.rd, s.opcode);
    case Lay::kCsr: return pack_i(i.csr, i.rs1, s.funct3, i.rd, s.opcode);
    case Lay::kCsrImm: return pack_i(i.csr, imm, s.funct3, i.rd, s.opcode);
    case Lay::kFrep:
      return pack_i((static_cast<std::uint32_t>(i.frep_stagger_mask) << 8) |
                        (static_cast<std::uint32_t>(i.frep_stagger_max) << 4) |
                        i.frep_insts,
                    i.rs1, 0, 0, s.opcode);
    case Lay::kFixed: return pack_i(s.hi, 0, s.funct3, 0, s.opcode);
  }
  return 0;
}

/// Instructions of `s.op` sweeping each operand field: every register in
/// every register field, the immediate's boundaries, every shift amount,
/// CSR addresses with every zimm, and every FREP field value.
std::vector<Inst> field_sweep(const RefOp& s) {
  std::vector<Inst> out;
  std::vector<std::int32_t> imms = {0};
  switch (s.lay) {
    case Lay::kI: case Lay::kS:
      imms = {-2048, -2047, -1, 0, 1, 2046, 2047};
      break;
    case Lay::kB:
      imms = {-4096, -4094, -2, 0, 2, 4092, 4094};
      break;
    case Lay::kU:
      imms = {0, 0x1000, 0x7ffff000, INT32_MIN, -0x1000};
      break;
    case Lay::kJ:
      imms = {-1048576, -1048574, -2, 0, 2, 1048572, 1048574};
      break;
    case Lay::kShift: case Lay::kCsrImm:
      imms.clear();
      for (std::int32_t v = 0; v < (s.lay == Lay::kShift ? 64 : 32); ++v) {
        imms.push_back(v);
      }
      break;
    default:
      break;
  }
  const bool has_rd = s.lay != Lay::kS && s.lay != Lay::kB &&
                      s.lay != Lay::kFrep && s.lay != Lay::kFixed;
  const bool has_rs1 = s.lay != Lay::kU && s.lay != Lay::kJ &&
                       s.lay != Lay::kCsrImm && s.lay != Lay::kFixed;
  const bool has_rs2 = ((s.lay == Lay::kR && s.rs2 < 0) || s.lay == Lay::kR4 ||
                        s.lay == Lay::kS || s.lay == Lay::kB);
  const bool has_rs3 = s.lay == Lay::kR4;
  const bool has_csr = s.lay == Lay::kCsr || s.lay == Lay::kCsrImm;
  for (unsigned r = 0; r < 32; ++r) {
    for (const std::int32_t imm : imms) {
      for (const std::uint16_t csr :
           has_csr ? std::vector<std::uint16_t>{0, 1, 0x7c1, 0x7ff, 0x800, 0xfff}
                   : std::vector<std::uint16_t>{0}) {
        Inst i;
        i.op = s.op;
        if (has_rd) i.rd = static_cast<std::uint8_t>(r);
        if (has_rs1) i.rs1 = static_cast<std::uint8_t>((r * 7 + 3) & 31);
        if (has_rs2) i.rs2 = static_cast<std::uint8_t>((r * 13 + 5) & 31);
        if (has_rs3) i.rs3 = static_cast<std::uint8_t>((r * 19 + 11) & 31);
        if (s.lay != Lay::kR && s.lay != Lay::kR4 && s.lay != Lay::kCsr &&
            s.lay != Lay::kFixed) {
          i.imm = imm;
        }
        i.csr = csr;
        if (s.lay == Lay::kFrep) {
          i.imm = 0;
          i.frep_insts = static_cast<std::uint8_t>(1 + r % 15);
          i.frep_stagger_max = static_cast<std::uint8_t>(r & 15);
          i.frep_stagger_mask = static_cast<std::uint8_t>((r >> 1) & 15);
        }
        out.push_back(i);
      }
    }
  }
  if (s.lay == Lay::kFrep) {
    for (unsigned n = 1; n <= 15; ++n) {
      for (unsigned mx = 0; mx <= 15; ++mx) {
        for (unsigned mask = 0; mask <= 15; ++mask) {
          Inst i;
          i.op = s.op;
          i.rs1 = static_cast<std::uint8_t>((n + mx + mask) & 31);
          i.frep_insts = static_cast<std::uint8_t>(n);
          i.frep_stagger_max = static_cast<std::uint8_t>(mx);
          i.frep_stagger_mask = static_cast<std::uint8_t>(mask);
          out.push_back(i);
        }
      }
    }
  }
  return out;
}

TEST(EncodingReference, CoversEveryOpcodeOnce) {
  ASSERT_EQ(std::size(kRefOps), std::size(kAllOps));
  for (std::size_t n = 0; n < std::size(kAllOps); ++n) {
    EXPECT_EQ(kRefOps[n].op, kAllOps[n]) << n;
  }
}

TEST(EncodingReference, EncodeMatchesPackerAndDecodeInvertsIt) {
  std::size_t checked = 0;
  for (const RefOp& s : kRefOps) {
    for (const Inst& i : field_sweep(s)) {
      const insn_word_t w = encode(i);
      ASSERT_EQ(w, ref_encode(s, i))
          << op_name(s.op) << ": " << disassemble(i) << std::hex << " got 0x"
          << w << " want 0x" << ref_encode(s, i);
      const auto back = decode(w);
      ASSERT_TRUE(back.has_value()) << op_name(s.op) << std::hex << " 0x" << w;
      ASSERT_EQ(*back, i) << op_name(s.op) << ": " << disassemble(i);
      ASSERT_EQ(encode(*back), w) << op_name(s.op);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10000u);
}

TEST(EncodingReference, ReencodingADecodedWordDecodesAlike) {
  // decode accepts don't-care fields (rm of FP arithmetic, fsqrt's rs2,
  // fence's operands, ecall/ebreak's rd and rs1), so the re-encoded word
  // may differ from the sampled one; what it decodes to may not.
  // FREP with zero insts decodes but has no encoding.
  std::uint64_t accepted = 0;
  for_each_sampled_word([&](insn_word_t w) {
    const auto i = decode(w);
    if (!i) return;
    ++accepted;
    if (i->op == Op::kFrep && i->frep_insts == 0) return;
    const auto again = decode(encode(*i));
    ASSERT_TRUE(again.has_value()) << std::hex << "0x" << w;
    ASSERT_EQ(*again, *i) << std::hex << "0x" << w;
  });
  EXPECT_GT(accepted, 0u);
}

TEST(Disassemble, ProducesReadableText) {
  EXPECT_EQ(disassemble(mk(Op::kAddi, 1, 0, 0, 1)), "addi ra, zero, 1");
  EXPECT_EQ(disassemble(mk(Op::kLw, 6, 5, 0, 16)), "lw t1, 16(t0)");
  Inst f;
  f.op = Op::kFmaddD;
  f.rd = 2;
  f.rs1 = 0;
  f.rs2 = 1;
  f.rs3 = 2;
  EXPECT_EQ(disassemble(f), "fmadd.d ft2, ft0, ft1, ft2");
}

TEST(Assembler, BackwardAndForwardBranches) {
  Assembler a;
  Label fwd = a.make_label();
  a.addi(kT0, kZero, 3);
  Label loop = a.here();
  a.addi(kT0, kT0, -1);
  a.beq(kT0, kZero, fwd);
  a.j(loop);
  a.bind(fwd);
  a.ecall();
  const auto prog = a.assemble();
  ASSERT_EQ(prog.size(), 5u);
  // beq at index 2 jumps +2 insts (8 bytes); jal at 3 jumps -2 (-8).
  EXPECT_EQ(prog.insts()[2].imm, 8);
  EXPECT_EQ(prog.insts()[3].imm, -8);
}

TEST(Assembler, LiExpandsAllRanges) {
  Rng rng(61);
  std::vector<std::int64_t> values = {0,       1,      -1,      2047,
                                      -2048,   2048,   0x7fffffff,
                                      -0x80000000ll,   0x123456789abcdef0ll,
                                      -0x123456789abcdef0ll};
  for (int i = 0; i < 40; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.engine()()));
  }
  for (const auto v : values) {
    Assembler a;
    a.li(kT0, v);
    a.ecall();
    const auto prog = a.assemble();
    EXPECT_GE(prog.size(), 2u);
    EXPECT_LE(prog.size(), 10u);
    // Every emitted word must decode.
    for (const auto w : prog.words()) {
      EXPECT_TRUE(decode(w).has_value());
    }
  }
}

TEST(Program, PcIndexing) {
  Assembler a;
  a.nop();
  a.ecall();
  const auto prog = a.assemble();
  EXPECT_TRUE(prog.contains_pc(Program::kBaseAddr));
  EXPECT_TRUE(prog.contains_pc(Program::kBaseAddr + 4));
  EXPECT_FALSE(prog.contains_pc(Program::kBaseAddr + 8));
  EXPECT_FALSE(prog.contains_pc(Program::kBaseAddr + 2));
  EXPECT_EQ(prog.insts().at(1).op, Op::kEcall);
  EXPECT_EQ(prog.word_at(Program::kBaseAddr + 4), prog.words().at(1));
}

TEST(Assembler, ListingMentionsOpcodes) {
  Assembler a;
  a.fmadd_d(kFt2, kFt0, kFt1, kFt2);
  const auto text = a.listing();
  EXPECT_NE(text.find("fmadd.d"), std::string::npos);
}

}  // namespace
}  // namespace issr::isa
