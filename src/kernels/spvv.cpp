#include "kernels/spvv.hpp"

#include <cassert>

#include "isa/assembler.hpp"

namespace issr::kernels {

using namespace issr::isa;

namespace {

unsigned index_load_bytes(sparse::IndexWidth w) {
  return sparse::index_bytes(w);
}

/// BASE: the paper's Section I loop, register-scheduled so no hazard
/// stalls remain — one multiply-accumulate per nine cycles.
void emit_base(Assembler& a, const SpvvArgs& args) {
  const unsigned iw = index_load_bytes(args.width);
  a.li(kS1, static_cast<std::int64_t>(args.a_idcs));
  a.li(kS2, static_cast<std::int64_t>(args.a_vals));
  a.li(kS3, static_cast<std::int64_t>(args.a_vals + args.nnz * 8ull));
  a.li(kS4, static_cast<std::int64_t>(args.b));
  a.li(kS5, static_cast<std::int64_t>(args.result));
  a.fzero(kFa0);

  Label loop = a.here();
  if (args.width == sparse::IndexWidth::kU16) {
    a.lhu(kT0, kS1, 0);
  } else {
    a.lw(kT0, kS1, 0);
  }
  a.slli(kT0, kT0, 3);
  a.add(kT0, kT0, kS4);
  a.fld(kFt0, kS2, 0);
  a.fld(kFt1, kT0, 0);
  a.addi(kS1, kS1, static_cast<std::int32_t>(iw));
  a.addi(kS2, kS2, 8);
  a.fmadd_d(kFa0, kFt0, kFt1, kFa0);
  a.bne(kS2, kS3, loop);

  a.fsd(kFa0, kS5, 0);
  emit_fpss_sync(a);
  emit_halt(a);
}

/// SSR: lane ft0 streams the sparse values; the scalar indirection into
/// the dense vector remains — seven instructions per nonzero.
void emit_ssr(Assembler& a, const SpvvArgs& args) {
  const unsigned iw = index_load_bytes(args.width);
  emit_affine_job(a, 0, args.a_vals, args.nnz);
  emit_ssr_enable(a);
  a.li(kS1, static_cast<std::int64_t>(args.a_idcs));
  a.li(kS6, static_cast<std::int64_t>(args.a_idcs + args.nnz * iw));
  a.li(kS4, static_cast<std::int64_t>(args.b));
  a.li(kS5, static_cast<std::int64_t>(args.result));
  a.fzero(kFa0);

  Label loop = a.here();
  if (args.width == sparse::IndexWidth::kU16) {
    a.lhu(kT0, kS1, 0);
  } else {
    a.lw(kT0, kS1, 0);
  }
  a.slli(kT0, kT0, 3);
  a.add(kT0, kT0, kS4);
  a.fld(kFt3, kT0, 0);
  a.addi(kS1, kS1, static_cast<std::int32_t>(iw));
  a.fmadd_d(kFa0, kFt0, kFt3, kFa0);
  a.bne(kS1, kS6, loop);

  emit_sync_and_disable(a);
  a.fsd(kFa0, kS5, 0);
  emit_fpss_sync(a);
  emit_halt(a);
}

/// ISSR: the paper's Listing 1 — a single staggered fmadd.d under FREP.
void emit_issr(Assembler& a, const SpvvArgs& args) {
  const unsigned n_acc = accumulators_for(args.width);
  emit_affine_job(a, 0, args.a_vals, args.nnz);              // ft0: a_vals
  emit_indirect_job(a, 1, args.b, args.a_idcs, args.nnz,
                    args.width);                             // ft1: b[idcs]
  emit_ssr_enable(a);
  emit_zero_accs(a, kFt2, n_acc);
  a.li(kT0, static_cast<std::int64_t>(args.nnz) - 1);
  a.frep(kT0, 1, n_acc - 1, kStaggerRdRs3);
  a.fmadd_d(kFt2, kFt0, kFt1, kFt2);

  const Freg sum = emit_reduction(a, kFt2, n_acc,
                                  static_cast<Freg>(kFt2 + n_acc));
  a.li(kS5, static_cast<std::int64_t>(args.result));
  emit_sync_and_disable(a);
  a.fsd(sum, kS5, 0);
  emit_fpss_sync(a);
  emit_halt(a);
}

void emit_zero_result(Assembler& a, const SpvvArgs& args) {
  a.li(kS5, static_cast<std::int64_t>(args.result));
  a.sd(kZero, kS5, 0);
  emit_halt(a);
}

}  // namespace

isa::Program build_spvv(Variant variant, const SpvvArgs& args) {
  Assembler a;
  if (args.nnz == 0) {
    emit_zero_result(a, args);
    return a.assemble();
  }
  switch (variant) {
    case Variant::kBase:
      emit_base(a, args);
      break;
    case Variant::kSsr:
      emit_ssr(a, args);
      break;
    case Variant::kIssr:
      emit_issr(a, args);
      break;
  }
  return a.assemble();
}

}  // namespace issr::kernels
