#include "isa/assembler.hpp"

#include <cassert>

#include "common/bitutil.hpp"

namespace issr::isa {
namespace {

Inst ibase(Op op, unsigned rd, unsigned rs1, unsigned rs2, std::int32_t imm) {
  Inst i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.rs1 = static_cast<std::uint8_t>(rs1);
  i.rs2 = static_cast<std::uint8_t>(rs2);
  i.imm = imm;
  return i;
}

}  // namespace

Label Assembler::make_label() {
  label_pos_.push_back(-1);
  return Label{static_cast<std::uint32_t>(label_pos_.size() - 1)};
}

void Assembler::bind(Label label) {
  assert(label.valid() && label.id < label_pos_.size());
  assert(label_pos_[label.id] < 0 && "label bound twice");
  label_pos_[label.id] = static_cast<std::int64_t>(insts_.size());
}

Label Assembler::here() {
  Label l = make_label();
  bind(l);
  return l;
}

void Assembler::emit(const Inst& inst) { insts_.push_back({inst, ~0u}); }

void Assembler::branch(Op op, Xreg rs1, Xreg rs2, Label target) {
  assert(target.valid());
  PendingInst p;
  p.inst = ibase(op, 0, rs1, rs2, 0);
  p.label_id = target.id;
  insts_.push_back(p);
}

// --- RV64I -----------------------------------------------------------------
void Assembler::lui(Xreg rd, std::int32_t imm) {
  emit(ibase(Op::kLui, rd, 0, 0, imm));
}
void Assembler::auipc(Xreg rd, std::int32_t imm) {
  emit(ibase(Op::kAuipc, rd, 0, 0, imm));
}
void Assembler::jal(Xreg rd, Label target) {
  assert(target.valid());
  PendingInst p;
  p.inst = ibase(Op::kJal, rd, 0, 0, 0);
  p.label_id = target.id;
  insts_.push_back(p);
}
void Assembler::jalr(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kJalr, rd, rs1, 0, imm));
}
void Assembler::beq(Xreg a, Xreg b, Label t) { branch(Op::kBeq, a, b, t); }
void Assembler::bne(Xreg a, Xreg b, Label t) { branch(Op::kBne, a, b, t); }
void Assembler::blt(Xreg a, Xreg b, Label t) { branch(Op::kBlt, a, b, t); }
void Assembler::bge(Xreg a, Xreg b, Label t) { branch(Op::kBge, a, b, t); }
void Assembler::bltu(Xreg a, Xreg b, Label t) { branch(Op::kBltu, a, b, t); }
void Assembler::bgeu(Xreg a, Xreg b, Label t) { branch(Op::kBgeu, a, b, t); }

void Assembler::lb(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLb, rd, rs1, 0, imm));
}
void Assembler::lh(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLh, rd, rs1, 0, imm));
}
void Assembler::lw(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLw, rd, rs1, 0, imm));
}
void Assembler::ld(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLd, rd, rs1, 0, imm));
}
void Assembler::lbu(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLbu, rd, rs1, 0, imm));
}
void Assembler::lhu(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLhu, rd, rs1, 0, imm));
}
void Assembler::lwu(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kLwu, rd, rs1, 0, imm));
}
void Assembler::sb(Xreg rs2, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kSb, 0, rs1, rs2, imm));
}
void Assembler::sh(Xreg rs2, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kSh, 0, rs1, rs2, imm));
}
void Assembler::sw(Xreg rs2, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kSw, 0, rs1, rs2, imm));
}
void Assembler::sd(Xreg rs2, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kSd, 0, rs1, rs2, imm));
}

void Assembler::addi(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kAddi, rd, rs1, 0, imm));
}
void Assembler::slti(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kSlti, rd, rs1, 0, imm));
}
void Assembler::sltiu(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kSltiu, rd, rs1, 0, imm));
}
void Assembler::xori(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kXori, rd, rs1, 0, imm));
}
void Assembler::ori(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kOri, rd, rs1, 0, imm));
}
void Assembler::andi(Xreg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kAndi, rd, rs1, 0, imm));
}
void Assembler::slli(Xreg rd, Xreg rs1, unsigned shamt) {
  assert(shamt < 64);
  emit(ibase(Op::kSlli, rd, rs1, 0, static_cast<std::int32_t>(shamt)));
}
void Assembler::srli(Xreg rd, Xreg rs1, unsigned shamt) {
  assert(shamt < 64);
  emit(ibase(Op::kSrli, rd, rs1, 0, static_cast<std::int32_t>(shamt)));
}
void Assembler::srai(Xreg rd, Xreg rs1, unsigned shamt) {
  assert(shamt < 64);
  emit(ibase(Op::kSrai, rd, rs1, 0, static_cast<std::int32_t>(shamt)));
}

void Assembler::add(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kAdd, rd, a, b, 0));
}
void Assembler::sub(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kSub, rd, a, b, 0));
}
void Assembler::sll(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kSll, rd, a, b, 0));
}
void Assembler::slt(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kSlt, rd, a, b, 0));
}
void Assembler::sltu(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kSltu, rd, a, b, 0));
}
void Assembler::xor_(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kXor, rd, a, b, 0));
}
void Assembler::srl(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kSrl, rd, a, b, 0));
}
void Assembler::sra(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kSra, rd, a, b, 0));
}
void Assembler::or_(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kOr, rd, a, b, 0));
}
void Assembler::and_(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kAnd, rd, a, b, 0));
}
void Assembler::fence() { emit(ibase(Op::kFence, 0, 0, 0, 0)); }
void Assembler::ecall() { emit(ibase(Op::kEcall, 0, 0, 0, 0)); }
void Assembler::ebreak() { emit(ibase(Op::kEbreak, 0, 0, 0, 0)); }

void Assembler::mul(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kMul, rd, a, b, 0));
}
void Assembler::mulh(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kMulh, rd, a, b, 0));
}
void Assembler::div(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kDiv, rd, a, b, 0));
}
void Assembler::divu(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kDivu, rd, a, b, 0));
}
void Assembler::rem(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kRem, rd, a, b, 0));
}
void Assembler::remu(Xreg rd, Xreg a, Xreg b) {
  emit(ibase(Op::kRemu, rd, a, b, 0));
}

namespace {
Inst csr_inst(Op op, unsigned rd, unsigned rs1_or_zimm, std::uint16_t csr,
              bool imm_form) {
  Inst i;
  i.op = op;
  i.rd = static_cast<std::uint8_t>(rd);
  i.csr = csr;
  if (imm_form) {
    i.imm = static_cast<std::int32_t>(rs1_or_zimm);
  } else {
    i.rs1 = static_cast<std::uint8_t>(rs1_or_zimm);
  }
  return i;
}
}  // namespace

void Assembler::csrrw(Xreg rd, std::uint16_t csr, Xreg rs1) {
  emit(csr_inst(Op::kCsrrw, rd, rs1, csr, false));
}
void Assembler::csrrs(Xreg rd, std::uint16_t csr, Xreg rs1) {
  emit(csr_inst(Op::kCsrrs, rd, rs1, csr, false));
}
void Assembler::csrrc(Xreg rd, std::uint16_t csr, Xreg rs1) {
  emit(csr_inst(Op::kCsrrc, rd, rs1, csr, false));
}
void Assembler::csrrwi(Xreg rd, std::uint16_t csr, std::uint8_t zimm) {
  emit(csr_inst(Op::kCsrrwi, rd, zimm, csr, true));
}
void Assembler::csrrsi(Xreg rd, std::uint16_t csr, std::uint8_t zimm) {
  emit(csr_inst(Op::kCsrrsi, rd, zimm, csr, true));
}
void Assembler::csrrci(Xreg rd, std::uint16_t csr, std::uint8_t zimm) {
  emit(csr_inst(Op::kCsrrci, rd, zimm, csr, true));
}

void Assembler::fld(Freg rd, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kFld, rd, rs1, 0, imm));
}
void Assembler::fsd(Freg rs2, Xreg rs1, std::int32_t imm) {
  emit(ibase(Op::kFsd, 0, rs1, rs2, imm));
}

namespace {
Inst r4(Op op, Freg rd, Freg rs1, Freg rs2, Freg rs3) {
  Inst i;
  i.op = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.rs2 = rs2;
  i.rs3 = rs3;
  return i;
}
}  // namespace

void Assembler::fmadd_d(Freg rd, Freg a, Freg b, Freg c) {
  emit(r4(Op::kFmaddD, rd, a, b, c));
}
void Assembler::fmsub_d(Freg rd, Freg a, Freg b, Freg c) {
  emit(r4(Op::kFmsubD, rd, a, b, c));
}
void Assembler::fnmsub_d(Freg rd, Freg a, Freg b, Freg c) {
  emit(r4(Op::kFnmsubD, rd, a, b, c));
}
void Assembler::fnmadd_d(Freg rd, Freg a, Freg b, Freg c) {
  emit(r4(Op::kFnmaddD, rd, a, b, c));
}
void Assembler::fadd_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFaddD, rd, a, b, 0));
}
void Assembler::fsub_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFsubD, rd, a, b, 0));
}
void Assembler::fmul_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFmulD, rd, a, b, 0));
}
void Assembler::fdiv_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFdivD, rd, a, b, 0));
}
void Assembler::fsqrt_d(Freg rd, Freg a) {
  emit(ibase(Op::kFsqrtD, rd, a, 0, 0));
}
void Assembler::fsgnj_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFsgnjD, rd, a, b, 0));
}
void Assembler::fsgnjn_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFsgnjnD, rd, a, b, 0));
}
void Assembler::fsgnjx_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFsgnjxD, rd, a, b, 0));
}
void Assembler::fmin_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFminD, rd, a, b, 0));
}
void Assembler::fmax_d(Freg rd, Freg a, Freg b) {
  emit(ibase(Op::kFmaxD, rd, a, b, 0));
}
void Assembler::fcvt_d_w(Freg rd, Xreg rs1) {
  emit(ibase(Op::kFcvtDW, rd, rs1, 0, 0));
}
void Assembler::fcvt_d_wu(Freg rd, Xreg rs1) {
  emit(ibase(Op::kFcvtDWu, rd, rs1, 0, 0));
}
void Assembler::fcvt_w_d(Xreg rd, Freg rs1) {
  emit(ibase(Op::kFcvtWD, rd, rs1, 0, 0));
}
void Assembler::fcvt_wu_d(Xreg rd, Freg rs1) {
  emit(ibase(Op::kFcvtWuD, rd, rs1, 0, 0));
}
void Assembler::fmv_x_d(Xreg rd, Freg rs1) {
  emit(ibase(Op::kFmvXD, rd, rs1, 0, 0));
}
void Assembler::fmv_d_x(Freg rd, Xreg rs1) {
  emit(ibase(Op::kFmvDX, rd, rs1, 0, 0));
}
void Assembler::feq_d(Xreg rd, Freg a, Freg b) {
  emit(ibase(Op::kFeqD, rd, a, b, 0));
}
void Assembler::flt_d(Xreg rd, Freg a, Freg b) {
  emit(ibase(Op::kFltD, rd, a, b, 0));
}
void Assembler::fle_d(Xreg rd, Freg a, Freg b) {
  emit(ibase(Op::kFleD, rd, a, b, 0));
}

void Assembler::frep(Xreg rs1, unsigned insts, unsigned stagger_max,
                     unsigned stagger_mask) {
  assert(insts >= 1 && insts <= 15);
  assert(stagger_max <= 15 && stagger_mask <= 15);
  Inst i;
  i.op = Op::kFrep;
  i.rs1 = rs1;
  i.frep_insts = static_cast<std::uint8_t>(insts);
  i.frep_stagger_max = static_cast<std::uint8_t>(stagger_max);
  i.frep_stagger_mask = static_cast<std::uint8_t>(stagger_mask);
  emit(i);
}

// --- Pseudo-instructions -----------------------------------------------------
void Assembler::nop() { addi(kZero, kZero, 0); }
void Assembler::mv(Xreg rd, Xreg rs1) { addi(rd, rs1, 0); }
void Assembler::fmv_d(Freg rd, Freg rs1) { fsgnj_d(rd, rs1, rs1); }
void Assembler::j(Label target) { jal(kZero, target); }
void Assembler::ret() { jalr(kZero, kRa, 0); }

void Assembler::li(Xreg rd, std::int64_t value) {
  if (fits_signed(value, 12)) {
    addi(rd, kZero, static_cast<std::int32_t>(value));
    return;
  }
  if (fits_signed(value, 32)) {
    // lui + addi: lui loads bits [31:12] sign-extended; adjust for the
    // sign of the low 12 bits.
    const auto lo = static_cast<std::int32_t>(sign_extend(
        static_cast<std::uint64_t>(value) & 0xfff, 12));
    std::int64_t hi = value - lo;
    assert((hi & 0xfff) == 0);
    // lui immediate is bits [31:12] << 12; it must fit in 32 bits.
    if (hi > 0x7fffffffll) hi -= 0x1'0000'0000ll;  // wraps in RV32 lui
    lui(rd, static_cast<std::int32_t>(hi));
    if (lo != 0) addi(rd, rd, lo);
    return;
  }
  // General 64-bit: load bits [63:32], then shift in the low word as
  // three 11/11/10-bit chunks (ori immediates stay positive 12-bit).
  li(rd, value >> 32);
  const auto lo32 = static_cast<std::uint32_t>(value);
  const std::uint32_t c0 = (lo32 >> 21) & 0x7ff;
  const std::uint32_t c1 = (lo32 >> 10) & 0x7ff;
  const std::uint32_t c2 = lo32 & 0x3ff;
  slli(rd, rd, 11);
  if (c0 != 0) ori(rd, rd, static_cast<std::int32_t>(c0));
  slli(rd, rd, 11);
  if (c1 != 0) ori(rd, rd, static_cast<std::int32_t>(c1));
  slli(rd, rd, 10);
  if (c2 != 0) ori(rd, rd, static_cast<std::int32_t>(c2));
}

void Assembler::fzero(Freg rd) { fcvt_d_w(rd, kZero); }

Program Assembler::assemble() const {
  std::vector<insn_word_t> words;
  words.reserve(insts_.size());
  for (std::size_t pos = 0; pos < insts_.size(); ++pos) {
    Inst inst = insts_[pos].inst;
    if (insts_[pos].label_id != ~0u) {
      const std::int64_t target = label_pos_.at(insts_[pos].label_id);
      assert(target >= 0 && "branch to unbound label");
      const std::int64_t offset =
          (target - static_cast<std::int64_t>(pos)) * 4;
      if (inst.op == Op::kJal) {
        assert(fits_signed(offset, 21));
      } else {
        assert(fits_signed(offset, 13));
      }
      inst.imm = static_cast<std::int32_t>(offset);
    }
    words.push_back(encode(inst));
  }
  return Program(std::move(words));
}

std::string Assembler::listing() const {
  std::string out;
  for (std::size_t pos = 0; pos < insts_.size(); ++pos) {
    out += std::to_string(pos * 4);
    out += ":\t";
    out += disassemble(insts_[pos].inst);
    if (insts_[pos].label_id != ~0u) {
      out += "  -> L";
      out += std::to_string(insts_[pos].label_id);
    }
    out += '\n';
  }
  return out;
}

}  // namespace issr::isa
