#include "kernels/kargs.hpp"

#include <cassert>

namespace issr::kernels {

using namespace issr::isa;

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kBase: return "BASE";
    case Variant::kSsr: return "SSR";
    case Variant::kIssr: return "ISSR";
  }
  return "?";
}

namespace {

void emit_cfg_write(Assembler& a, unsigned lane, SsrCfgReg reg,
                    std::uint64_t value) {
  a.li(kT6, static_cast<std::int64_t>(value));
  a.csrrw(kZero, ssr_csr(lane, reg), kT6);
}

}  // namespace

void emit_affine_job(Assembler& a, unsigned lane, addr_t base,
                     std::uint64_t count, std::int64_t stride_bytes,
                     bool write, std::uint64_t reps) {
  assert(count >= 1);
  emit_cfg_write(a, lane, SsrCfgReg::kReps, reps);
  emit_cfg_write(a, lane, SsrCfgReg::kBound0, count - 1);
  emit_cfg_write(a, lane, SsrCfgReg::kStride0,
                 static_cast<std::uint64_t>(stride_bytes));
  emit_cfg_write(a, lane, SsrCfgReg::kIdxCfg, kIdxCfgAffine);
  emit_cfg_write(a, lane, write ? SsrCfgReg::kWptr : SsrCfgReg::kRptr, base);
}

void emit_indirect_job(Assembler& a, unsigned lane, addr_t data_base,
                       addr_t idx_base, std::uint64_t count,
                       sparse::IndexWidth width, unsigned idx_shift,
                       bool write) {
  assert(count >= 1);
  const std::uint64_t idx_cfg =
      (width == sparse::IndexWidth::kU16 ? kIdxCfgIdx16 : kIdxCfgIdx32) |
      (static_cast<std::uint64_t>(idx_shift) << kIdxCfgShiftLsb);
  emit_cfg_write(a, lane, SsrCfgReg::kReps, 0);
  emit_cfg_write(a, lane, SsrCfgReg::kBound0, count - 1);
  emit_cfg_write(a, lane, SsrCfgReg::kIdxCfg, idx_cfg);
  emit_cfg_write(a, lane, SsrCfgReg::kIdxBase, idx_base);
  emit_cfg_write(a, lane, write ? SsrCfgReg::kWptr : SsrCfgReg::kRptr,
                 data_base);
}

void emit_ssr_enable(Assembler& a) { a.csrrsi(kZero, kCsrSsrEnable, 1); }

void emit_fpss_sync(Assembler& a) { a.csrrs(kZero, kCsrFpssSync, kZero); }

void emit_sync_and_disable(Assembler& a) {
  emit_fpss_sync(a);
  a.csrrci(kZero, kCsrSsrEnable, 1);
}

void emit_barrier(Assembler& a) { a.csrrs(kZero, kCsrBarrier, kZero); }

void emit_halt(Assembler& a) { a.ecall(); }

void emit_zero_accs(Assembler& a, Freg first, unsigned count) {
  for (unsigned i = 0; i < count; ++i) {
    a.fzero(static_cast<Freg>(first + i));
  }
}

Freg emit_reduction(Assembler& a, Freg first, unsigned count, Freg scratch) {
  assert(count >= 1);
  if (count == 1) return first;
  // Pairwise tree: combine adjacent pairs into scratch registers until one
  // value remains. Scratch registers are consumed sequentially.
  std::uint8_t live[16];
  unsigned n = 0;
  for (unsigned i = 0; i < count; ++i) live[n++] = first + i;
  unsigned next_scratch = scratch;
  while (n > 1) {
    unsigned out = 0;
    for (unsigned i = 0; i + 1 < n; i += 2) {
      const auto dst = static_cast<Freg>(next_scratch++);
      a.fadd_d(dst, static_cast<Freg>(live[i]), static_cast<Freg>(live[i + 1]));
      live[out++] = dst;
    }
    if (n % 2) live[out++] = live[n - 1];
    n = out;
  }
  return static_cast<Freg>(live[0]);
}

}  // namespace issr::kernels
