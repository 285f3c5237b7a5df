// ISA tests: golden encodings against the RISC-V spec, encode/decode
// round-trip properties over randomized instructions, assembler label
// resolution and li expansion.
#include <gtest/gtest.h>

#include "common/rng.hpp"
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

// Property: encode/decode round-trips across the full opcode set with
// randomized fields.
class EncodeDecodeRoundTrip : public ::testing::TestWithParam<Op> {};

TEST_P(EncodeDecodeRoundTrip, RandomizedFields) {
  const Op op = GetParam();
  Rng rng(static_cast<std::uint64_t>(op) * 977 + 3);
  for (int trial = 0; trial < 50; ++trial) {
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
    const auto word = encode(i);
    const auto back = decode(word);
    ASSERT_TRUE(back.has_value()) << op_name(op) << " word=" << word;
    EXPECT_EQ(*back, i) << op_name(op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EncodeDecodeRoundTrip,
    ::testing::Values(
        Op::kLui, Op::kAuipc, Op::kJal, Op::kJalr, Op::kBeq, Op::kBne,
        Op::kBlt, Op::kBge, Op::kBltu, Op::kBgeu, Op::kLb, Op::kLh, Op::kLw,
        Op::kLd, Op::kLbu, Op::kLhu, Op::kLwu, Op::kSb, Op::kSh, Op::kSw,
        Op::kSd, Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori, Op::kOri,
        Op::kAndi, Op::kSlli, Op::kSrli, Op::kSrai, Op::kAdd, Op::kSub,
        Op::kSll, Op::kSlt, Op::kSltu, Op::kXor, Op::kSrl, Op::kSra, Op::kOr,
        Op::kAnd, Op::kMul, Op::kMulh, Op::kDiv, Op::kDivu, Op::kRem,
        Op::kRemu, Op::kCsrrw, Op::kCsrrs, Op::kCsrrc, Op::kCsrrwi,
        Op::kCsrrsi, Op::kCsrrci, Op::kFld, Op::kFsd, Op::kFmaddD,
        Op::kFmsubD, Op::kFnmsubD, Op::kFnmaddD, Op::kFaddD, Op::kFsubD,
        Op::kFmulD, Op::kFdivD, Op::kFsqrtD, Op::kFsgnjD, Op::kFsgnjnD,
        Op::kFsgnjxD, Op::kFminD, Op::kFmaxD, Op::kFcvtDW, Op::kFcvtDWu,
        Op::kFcvtWD, Op::kFcvtWuD, Op::kFmvXD, Op::kFmvDX, Op::kFeqD,
        Op::kFltD, Op::kFleD, Op::kFrep),
    [](const auto& info) {
      std::string n = op_name(info.param);
      for (auto& ch : n) if (ch == '.') ch = '_';
      return n;
    });

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
