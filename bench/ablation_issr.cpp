// Ablation studies of the §II design choices:
//  1. shared ISSR port + round-robin mux (paper default) vs a dedicated
//     index port ("three ports per core": removes the 4/5 and 2/3
//     ceilings at ~1.5x interconnect cost);
//  2. data FIFO depth (decoupling vs latency tolerance);
//  3. accumulator/stagger depth under FREP (RAW distance vs reduction
//     length);
//  4. taken-branch penalty sensitivity of the scalar BASE kernel.
// Every run doubles as an integration check: a result that misses the
// golden reference ends the program with exit status 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/sim.hpp"
#include "driver/runs.hpp"
#include "isa/assembler.hpp"
#include "kernels/spvv.hpp"
#include "model/area.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"

using namespace issr;

namespace {

void mismatch(const char* what) {
  std::fprintf(stderr,
               "ablation_issr: %s does not match the golden reference\n",
               what);
  std::exit(1);
}

/// Run `sim` with its loaded SpVV program and check the dot product it
/// stored at `result` against sparse::ref_spvv(a, b).
core::CcSimResult run_checked_spvv(core::CcSim& sim, addr_t result,
                                   const sparse::SparseFiber& a,
                                   const sparse::DenseVector& b) {
  const core::CcSimResult r = sim.run();
  const double got = sim.read_f64(result);
  const double want = sparse::ref_spvv(a, b);
  if (r.fault || std::abs(got - want) > 1e-9 + 1e-9 * std::abs(want)) {
    mismatch("an SpVV result");
  }
  return r;
}

core::CcSimResult run_spvv_cfg(const core::CcSimConfig& cfg,
                               sparse::IndexWidth width, std::uint32_t nnz,
                               unsigned n_acc_override = 0) {
  Rng rng(6000 + nnz);
  const std::uint32_t dim = std::max<std::uint32_t>(2 * nnz, 64);
  const auto a = sparse::random_sparse_vector(rng, dim, nnz);
  const auto b = sparse::random_dense_vector(rng, dim);

  core::CcSim sim(cfg);
  kernels::SpvvArgs args;
  args.a_vals = sim.stage(a.vals());
  args.a_idcs = sim.stage_indices(a.idcs(), width);
  args.nnz = nnz;
  args.b = sim.stage(b);
  args.result = sim.alloc(8);
  args.width = width;

  if (n_acc_override == 0) {
    sim.set_program(kernels::build_spvv(kernels::Variant::kIssr, args));
  } else {
    // Hand-rolled ISSR SpVV with a custom accumulator count.
    using namespace issr::isa;
    Assembler as;
    const unsigned n = n_acc_override;
    kernels::emit_affine_job(as, 0, args.a_vals, args.nnz);
    kernels::emit_indirect_job(as, 1, args.b, args.a_idcs, args.nnz,
                               args.width);
    kernels::emit_ssr_enable(as);
    kernels::emit_zero_accs(as, kFt2, n);
    as.li(kT0, static_cast<std::int64_t>(args.nnz) - 1);
    as.frep(kT0, 1, n - 1, kernels::kStaggerRdRs3);
    as.fmadd_d(kFt2, kFt0, kFt1, kFt2);
    const Freg sum = kernels::emit_reduction(
        as, kFt2, n, static_cast<Freg>(kFt2 + n));
    as.li(kS5, static_cast<std::int64_t>(args.result));
    kernels::emit_sync_and_disable(as);
    as.fsd(sum, kS5, 0);
    kernels::emit_fpss_sync(as);
    kernels::emit_halt(as);
    sim.set_program(as.assemble());
  }
  return run_checked_spvv(sim, args.result, a, b);
}

}  // namespace

int main() {
  std::printf("ISSR design ablations\n\n");
  const std::uint32_t nnz = 2048;

  // 1. Port topology.
  {
    Table t("Port topology (ISSR SpVV utilization at large nnz)");
    t.set_header({"topology", "ISSR16 util", "ISSR32 util",
                  "streamer kGE (model)"});
    for (const bool dedicated : {false, true}) {
      core::CcSimConfig cfg;
      cfg.cc.streamer.issr_lane.dedicated_idx_port = dedicated;
      const auto u16 = run_spvv_cfg(cfg, sparse::IndexWidth::kU16, nnz);
      const auto u32 = run_spvv_cfg(cfg, sparse::IndexWidth::kU32, nnz);
      model::AreaParams ap;
      ap.dedicated_idx_port = dedicated;
      t.add_row({dedicated ? "dedicated index port (3 ports)"
                           : "shared + round-robin mux (paper)",
                 fmt_f(u16.fpu_util()), fmt_f(u32.fpu_util()),
                 fmt_f(model::streamer_area(ap).total(), 1)});
    }
    t.print();
  }

  // 2. Data FIFO depth vs memory latency: the FIFO plus the outstanding-
  // request credit window must cover the round trip; with the paper's
  // single-cycle TCDM shallow FIFOs suffice, while slower memories need
  // the decoupling depth.
  {
    Table t("Data FIFO depth x memory latency (ISSR16 SpVV utilization)");
    t.set_header({"stages", "latency 1", "latency 4", "latency 8"});
    for (const unsigned depth : {2u, 3u, 5u, 8u, 16u}) {
      std::vector<std::string> row{fmt_u(depth)};
      for (const cycle_t lat : {1u, 4u, 8u}) {
        core::CcSimConfig cfg;
        cfg.mem_latency = lat;
        cfg.cc.streamer.ssr_lane.data_fifo_depth = depth;
        cfg.cc.streamer.issr_lane.data_fifo_depth = depth;
        const auto r = run_spvv_cfg(cfg, sparse::IndexWidth::kU16, nnz);
        row.push_back(fmt_f(r.fpu_util()));
      }
      t.add_row(row);
    }
    t.print();
  }

  // 3. Accumulator (stagger) depth.
  {
    Table t("FREP accumulator staggering (ISSR16 SpVV)");
    t.set_header({"accumulators", "util", "note"});
    for (const unsigned n : {1u, 2u, 3u, 4u, 6u, 8u}) {
      const auto r = run_spvv_cfg({}, sparse::IndexWidth::kU16, nnz, n);
      const char* note =
          n == 1 ? "RAW-bound (FMA latency)"
                 : (n >= 4 ? "covers 0.8 issue rate" : "partially covered");
      t.add_row({fmt_u(n), fmt_f(r.fpu_util()), note});
    }
    t.print();
  }

  // 4. Worker-count scaling of cluster CsrMV (the paper evaluates 8
  // workers; scaling shows where TCDM banking and DMA bandwidth bind).
  {
    Table t("Cluster worker scaling (ISSR16 CsrMV, 64 nnz/row)");
    t.set_header({"workers", "cycles", "speedup vs 1", "ISSR util",
                  "conflict rate"});
    Rng rng(88);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, 256, 512, 64);
    const auto x = sparse::random_dense_vector(rng, 512);
    cycle_t one_worker = 0;
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
      const auto run = driver::run_csrmv_sys(
          kernels::Variant::kIssr, sparse::IndexWidth::kU16, 1, workers, a,
          x, nullptr, true, {}, driver::SysTuning{.fabric = false});
      if (!run.ok) mismatch("a cluster CsrMV result");
      const auto& r = run.sys.system;
      if (workers == 1) one_worker = r.cycles;
      t.add_row({fmt_u(workers), fmt_u(r.cycles),
                 fmt_speedup(static_cast<double>(one_worker) /
                             static_cast<double>(r.cycles)),
                 fmt_f(r.fpu_util()),
                 fmt_f(r.clusters[0].tcdm.conflict_rate())});
    }
    t.print();
  }

  // 5. Taken-branch penalty (BASE SpVV cycles per nonzero).
  {
    Table t("Taken-branch penalty sensitivity (BASE SpVV)");
    t.set_header({"penalty cycles", "cycles/nnz", "util"});
    for (const unsigned pen : {0u, 1u, 2u}) {
      Rng rng(77);
      const auto a = sparse::random_sparse_vector(rng, 2 * nnz, nnz);
      const auto b = sparse::random_dense_vector(rng, 2 * nnz);
      core::CcSimConfig cfg;
      cfg.cc.core.branch_penalty = pen;
      core::CcSim sim(cfg);
      kernels::SpvvArgs args;
      args.a_vals = sim.stage(a.vals());
      args.a_idcs = sim.stage_indices(a.idcs(), sparse::IndexWidth::kU32);
      args.nnz = nnz;
      args.b = sim.stage(b);
      args.result = sim.alloc(8);
      args.width = sparse::IndexWidth::kU32;
      sim.set_program(kernels::build_spvv(kernels::Variant::kBase, args));
      const auto r = run_checked_spvv(sim, args.result, a, b);
      t.add_row({fmt_u(pen),
                 fmt_f(static_cast<double>(r.cycles) / nnz, 2),
                 fmt_f(r.fpu_util())});
    }
    t.print();
  }
  return 0;
}
