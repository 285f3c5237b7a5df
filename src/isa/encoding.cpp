#include "isa/encoding.hpp"

#include <cassert>
#include <cstdio>
#include <span>
#include <utility>

#include "common/bitutil.hpp"

namespace issr::isa {
namespace {

// Immediate field packers; each asserts its range.

std::uint32_t i_imm(std::int32_t imm) {
  assert(fits_signed(imm, 12));
  return static_cast<std::uint32_t>(imm & 0xfff) << 20;
}

std::uint32_t s_imm(std::int32_t imm) {
  assert(fits_signed(imm, 12));
  const auto u = static_cast<std::uint32_t>(imm & 0xfff);
  return (bits(u, 11, 5) << 25) | (bits(u, 4, 0) << 7);
}

std::uint32_t b_imm(std::int32_t imm) {
  assert(fits_signed(imm, 13) && (imm & 1) == 0);
  const auto u = static_cast<std::uint32_t>(imm & 0x1fff);
  return (bit(u, 12) << 31) | (bits(u, 10, 5) << 25) | (bits(u, 4, 1) << 8) |
         (bit(u, 11) << 7);
}

std::uint32_t u_imm(std::int32_t imm) {
  // `imm` is the full 32-bit value with the low 12 bits zero.
  assert((imm & 0xfff) == 0);
  return static_cast<std::uint32_t>(imm);
}

std::uint32_t j_imm(std::int32_t imm) {
  assert(fits_signed(imm, 21) && (imm & 1) == 0);
  const auto u = static_cast<std::uint32_t>(imm) & 0x1fffff;
  return (bit(u, 20) << 31) | (bits(u, 10, 1) << 21) | (bit(u, 11) << 20) |
         (bits(u, 19, 12) << 12);
}

std::uint32_t shamt(std::int32_t imm) {
  assert(imm >= 0 && imm < 64);
  return static_cast<std::uint32_t>(imm) << 20;
}

// FREP (custom-1): [31:28] stagger_mask, [27:24] stagger_max,
// [23:20] frep_insts, [19:15] rs1 (iteration count - 1), [14:12] 0,
// [11:7] 0, [6:0] 0x2b.
std::uint32_t encode_frep(const Inst& inst) {
  assert(inst.frep_insts >= 1 && inst.frep_insts <= 15);
  assert(inst.frep_stagger_max <= 15);
  assert(inst.frep_stagger_mask <= 15);
  return (static_cast<std::uint32_t>(inst.frep_stagger_mask) << 28) |
         (static_cast<std::uint32_t>(inst.frep_stagger_max) << 24) |
         (static_cast<std::uint32_t>(inst.frep_insts) << 20);
}

/// Every opcode's row grouped by major opcode: the rows of opcode `o` are
/// ops[start[o] .. start[o + 1]).
struct OpcodeIndex {
  std::array<std::uint8_t, 129> start{};
  std::array<Op, kNumOps> ops{};
};

constexpr OpcodeIndex build_opcode_index() {
  OpcodeIndex x;
  for (const OpInfo& r : kOpTable) {
    if (r.op != Op::kInvalid) ++x.start[(r.fixed.bits & 0x7f) + 1];
  }
  for (std::size_t o = 0; o < 128; ++o) x.start[o + 1] += x.start[o];
  std::array<std::uint8_t, 128> next{};
  for (std::size_t o = 0; o < 128; ++o) next[o] = x.start[o];
  for (const OpInfo& r : kOpTable) {
    if (r.op != Op::kInvalid) x.ops[next[r.fixed.bits & 0x7f]++] = r.op;
  }
  return x;
}

constexpr OpcodeIndex kByOpcode = build_opcode_index();

// Every row checks its whole major opcode, and no word matches two rows,
// so the order decode tries an opcode's rows in cannot matter.
static_assert(
    [] {
      for (const OpInfo& a : kOpTable) {
        if (a.op == Op::kInvalid) continue;
        if ((a.fixed.mask & 0x7f) != 0x7f) return false;
        for (const OpInfo& b : kOpTable) {
          if (b.op == Op::kInvalid || b.op == a.op) continue;
          const std::uint32_t both = a.fixed.mask & b.fixed.mask;
          if (((a.fixed.bits ^ b.fixed.bits) & both) == 0) return false;
        }
      }
      return true;
    }(),
    "kOpTable encodings must be disjoint");

std::span<const Op> rows_of_opcode(std::uint32_t opcode) {
  return {kByOpcode.ops.data() + kByOpcode.start[opcode],
          kByOpcode.ops.data() + kByOpcode.start[opcode + 1]};
}

}  // namespace

insn_word_t encode(const Inst& i) {
  assert(i.op != Op::kInvalid && "cannot encode invalid instruction");
  const OpInfo& r = op_info(i.op);
  std::uint32_t w = r.fixed.bits;
  if (r.rd != RegFile::kNone) w |= static_cast<std::uint32_t>(i.rd) << 7;
  if (r.rs1 != RegFile::kNone) w |= static_cast<std::uint32_t>(i.rs1) << 15;
  if (r.rs2 != RegFile::kNone) w |= static_cast<std::uint32_t>(i.rs2) << 20;
  if (r.rs3 != RegFile::kNone) w |= static_cast<std::uint32_t>(i.rs3) << 27;
  switch (r.format) {
    case Format::kFixed: case Format::kR: break;
    case Format::kI: case Format::kIMem: w |= i_imm(i.imm); break;
    case Format::kShift: w |= shamt(i.imm); break;
    case Format::kS: w |= s_imm(i.imm); break;
    case Format::kB: w |= b_imm(i.imm); break;
    case Format::kU: w |= u_imm(i.imm); break;
    case Format::kJ: w |= j_imm(i.imm); break;
    case Format::kCsr: w |= static_cast<std::uint32_t>(i.csr) << 20; break;
    case Format::kCsrImm:
      w |= (static_cast<std::uint32_t>(i.csr) << 20) |
           (static_cast<std::uint32_t>(i.imm & 0x1f) << 15);
      break;
    case Format::kFrep: w |= encode_frep(i); break;
  }
  return w;
}

std::optional<Inst> decode(insn_word_t w) {
  for (const Op op : rows_of_opcode(bits(w, 6, 0))) {
    const OpInfo& r = op_info(op);
    if ((w & r.fixed.mask) != (r.fixed.bits & r.fixed.mask)) continue;
    Inst i;
    i.op = op;
    if (r.rd != RegFile::kNone) {
      i.rd = static_cast<std::uint8_t>(bits(w, 11, 7));
    }
    if (r.rs1 != RegFile::kNone) {
      i.rs1 = static_cast<std::uint8_t>(bits(w, 19, 15));
    }
    if (r.rs2 != RegFile::kNone) {
      i.rs2 = static_cast<std::uint8_t>(bits(w, 24, 20));
    }
    if (r.rs3 != RegFile::kNone) {
      i.rs3 = static_cast<std::uint8_t>(bits(w, 31, 27));
    }
    switch (r.format) {
      case Format::kFixed: case Format::kR: break;
      case Format::kI: case Format::kIMem:
        i.imm = static_cast<std::int32_t>(sign_extend(bits(w, 31, 20), 12));
        break;
      case Format::kShift:
        i.imm = static_cast<std::int32_t>(bits(w, 25, 20));
        break;
      case Format::kS:
        i.imm = static_cast<std::int32_t>(
            sign_extend((bits(w, 31, 25) << 5) | bits(w, 11, 7), 12));
        break;
      case Format::kB:
        i.imm = static_cast<std::int32_t>(
            sign_extend((bit(w, 31) << 12) | (bit(w, 7) << 11) |
                            (bits(w, 30, 25) << 5) | (bits(w, 11, 8) << 1),
                        13));
        break;
      case Format::kU:
        i.imm = static_cast<std::int32_t>(w & 0xfffff000u);
        break;
      case Format::kJ:
        i.imm = static_cast<std::int32_t>(
            sign_extend((bit(w, 31) << 20) | (bits(w, 19, 12) << 12) |
                            (bit(w, 20) << 11) | (bits(w, 30, 21) << 1),
                        21));
        break;
      case Format::kCsr:
        i.csr = static_cast<std::uint16_t>(bits(w, 31, 20));
        break;
      case Format::kCsrImm:
        i.csr = static_cast<std::uint16_t>(bits(w, 31, 20));
        i.imm = static_cast<std::int32_t>(bits(w, 19, 15));  // zimm
        break;
      case Format::kFrep:
        // frep_insts == 0 decodes to a complete no-op loop (the sequencer
        // handles it explicitly); the assembler never emits it, but a
        // hand-built image may, and rejecting it here would turn a
        // defined encoding into a fetch fault.
        i.frep_insts = static_cast<std::uint8_t>(bits(w, 23, 20));
        i.frep_stagger_max = static_cast<std::uint8_t>(bits(w, 27, 24));
        i.frep_stagger_mask = static_cast<std::uint8_t>(bits(w, 31, 28));
        break;
    }
    return i;
  }
  return std::nullopt;
}

std::string disassemble(const Inst& i) {
  const OpInfo& r = op_info(i.op);
  const auto reg = [](RegFile file, unsigned idx) {
    return file == RegFile::kF ? freg_name(idx) : xreg_name(idx);
  };
  const char* n = r.name;
  const char* rd = reg(r.rd, i.rd);
  const char* rs1 = reg(r.rs1, i.rs1);
  const char* rs2 = reg(r.rs2, i.rs2);
  char buf[128];
  switch (r.format) {
    case Format::kFixed:
      return n;
    case Format::kR: {
      // Every register operand, in rd, rs1, rs2, rs3 order.
      std::string out = n;
      const char* sep = " ";
      const std::pair<RegFile, unsigned> regs[] = {
          {r.rd, i.rd}, {r.rs1, i.rs1}, {r.rs2, i.rs2}, {r.rs3, i.rs3}};
      for (const auto& [file, idx] : regs) {
        if (file == RegFile::kNone) continue;
        out += sep;
        out += reg(file, idx);
        sep = ", ";
      }
      return out;
    }
    case Format::kI: case Format::kShift:
      std::snprintf(buf, sizeof buf, "%s %s, %s, %d", n, rd, rs1, i.imm);
      break;
    case Format::kIMem:
      std::snprintf(buf, sizeof buf, "%s %s, %d(%s)", n, rd, i.imm, rs1);
      break;
    case Format::kS:
      std::snprintf(buf, sizeof buf, "%s %s, %d(%s)", n, rs2, i.imm, rs1);
      break;
    case Format::kB:
      std::snprintf(buf, sizeof buf, "%s %s, %s, %d", n, rs1, rs2, i.imm);
      break;
    case Format::kU:
      std::snprintf(buf, sizeof buf, "%s %s, 0x%x", n, rd,
                    static_cast<unsigned>(i.imm) >> 12);
      break;
    case Format::kJ:
      std::snprintf(buf, sizeof buf, "%s %s, %d", n, rd, i.imm);
      break;
    case Format::kCsr:
      std::snprintf(buf, sizeof buf, "%s %s, 0x%x, %s", n, rd, i.csr, rs1);
      break;
    case Format::kCsrImm:
      std::snprintf(buf, sizeof buf, "%s %s, 0x%x, %d", n, rd, i.csr, i.imm);
      break;
    case Format::kFrep:
      std::snprintf(buf, sizeof buf,
                    "%s %s, insts=%u, stagger_max=%u, stagger_mask=0x%x", n,
                    rs1, i.frep_insts, i.frep_stagger_max,
                    i.frep_stagger_mask);
      break;
  }
  return buf;
}

}  // namespace issr::isa
