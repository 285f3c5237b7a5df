// Reproduces the paper's Fig. 4a-d, the §IV-C area and timing model and
// the §V comparison, then checks every anchor of driver::paper_table()
// against what it measured. Prints each figure's tables, writes their
// CSVs to the working directory, prints one line per anchor, and exits 1
// when an anchor leaves its limit or a simulated result misses the golden
// reference. CTest runs it as paper_fidelity.
//
// Synthetic stand-ins replace the SuiteSparse matrices (the quick suite
// of sparse/suite.hpp); every input is seeded, so the output is fixed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/sim.hpp"
#include "driver/paper.hpp"
#include "driver/runs.hpp"
#include "kernels/csrmm.hpp"
#include "metrics/harvest.hpp"
#include "model/area.hpp"
#include "model/comparison.hpp"
#include "model/energy.hpp"
#include "sparse/generate.hpp"
#include "sparse/suite.hpp"

using namespace issr;
using driver::Anchor;
using kernels::Variant;
using sparse::IndexWidth;

namespace {

/// The model's value of each anchor the report measured.
using Measured = std::map<Anchor, double>;

/// Every run doubles as an integration check: a result that misses the
/// golden reference ends the report.
template <typename Run>
Run checked(Run r) {
  if (!r.ok) {
    std::fprintf(stderr, "paper_report: a simulated result does not match "
                         "the golden reference\n");
    std::exit(1);
  }
  return r;
}

double ratio(cycle_t base, cycle_t fast) {
  return static_cast<double>(base) / static_cast<double>(fast);
}

// Fig. 4a: single-CC SpVV FPU utilization against the sparse vector's
// nonzero count. The ISSR kernels are reported with and without the
// accumulator reduction (the paper's "m" series). Expected: BASE and SSR
// flat at their 1/9 and 1/7 limits, ISSR rising toward the 0.80 (16-bit)
// and 0.67 (32-bit) arbitration ceilings.
void fig4a(Measured& m) {
  std::printf("Fig. 4a reproduction: CC SpVV FPU utilizations\n");
  std::printf("(runtime is independent of the dense vector size; the dense "
              "operand fits the TCDM)\n\n");
  constexpr std::pair<Variant, IndexWidth> kKernels[] = {
      {Variant::kBase, IndexWidth::kU32}, {Variant::kSsr, IndexWidth::kU32},
      {Variant::kIssr, IndexWidth::kU16}, {Variant::kIssr, IndexWidth::kU32}};
  Table t("CC SpVV FPU utilization vs nnz");
  t.set_header({"nnz", "BASE", "SSR", "ISSR16", "ISSR16m", "ISSR32",
                "ISSR32m"});
  for (const std::uint32_t nnz : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u,
                                  48u, 64u, 96u, 128u, 192u, 256u, 384u, 512u,
                                  1024u, 2048u}) {
    Rng rng(1000 + nnz);
    const std::uint32_t dim = std::max<std::uint32_t>(2 * nnz, 64);
    const auto a = sparse::random_sparse_vector(rng, dim, nnz);
    const auto b = sparse::random_dense_vector(rng, dim);
    std::vector<std::string> row{fmt_u(nnz)};
    for (const auto& [v, w] : kKernels) {
      // The metrics registry's util_fpu, as `issr_run --perf-report` reads.
      const auto s =
          metrics::harvest_cc(checked(driver::run_spvv_cc(v, w, a, b)).sim);
      row.push_back(fmt_f(s.value("util_fpu")));
      if (v == Variant::kIssr) row.push_back(fmt_f(s.value("util_fpu_fmadd")));
      if (nnz == 2048) m[driver::fig4a_anchor(v, w)] = s.value("util_fpu");
    }
    t.add_row(row);
  }
  t.print();
  t.write_csv("fig4a_spvv_util.csv");
}

/// Single-CC CsrMV speedups over BASE.
struct CcSpeedups {
  double ssr, issr16, issr32;  ///< issr16 = issr32 if indices need 32 bits
  double issr16_util;
};

CcSpeedups cc_speedups(const sparse::CsrMatrix& a,
                       const sparse::DenseVector& x) {
  const auto run = [&](Variant v, IndexWidth w) {
    return checked(driver::run_csrmv_cc(v, w, a, x)).sim;
  };
  const auto base = run(Variant::kBase, IndexWidth::kU32);
  const auto ssr = run(Variant::kSsr, IndexWidth::kU32);
  const auto i32 = run(Variant::kIssr, IndexWidth::kU32);
  const auto i16 = a.fits_u16() ? run(Variant::kIssr, IndexWidth::kU16) : i32;
  return {ratio(base.cycles, ssr.cycles), ratio(base.cycles, i16.cycles),
          ratio(base.cycles, i32.cycles), i16.fpu_util()};
}

/// The nnz/row from which ISSR16 leads ISSR32 for good, interpolated
/// linearly between the two sweep points around the sign change; NaN when
/// the sweep does not bracket it.
double crossover(const std::vector<std::pair<double, double>>& lead) {
  std::size_t k = lead.size();
  while (k > 0 && lead[k - 1].second > 0) --k;
  if (k == 0 || k == lead.size()) return std::nan("");
  const auto [x0, d0] = lead[k - 1];
  const auto [x1, d1] = lead[k];
  return x0 + (x1 - x0) * -d0 / (d1 - d0);
}

// Fig. 4b: single-CC CsrMV speedup over BASE against nnz/row, on a
// controlled sweep and on the suite, plus the §IV-A CsrMM spot check.
// Expected: ISSR speedups rise toward the 7.2x (16-bit) and 6.0x (32-bit)
// limits; the 16-bit kernel, whose reduction is longer, overtakes the
// 32-bit one past nnz/row ~20.
void fig4b(Measured& m) {
  std::printf("Fig. 4b reproduction: CC CsrMV speedups over BASE\n\n");
  Table t("CC CsrMV speedup vs avg nnz/row (uniform rows)");
  t.set_header({"nnz/row", "SSR", "ISSR16", "ISSR32", "ISSR16 util"});
  std::vector<std::pair<double, double>> lead;  // nnz/row, ISSR16 - ISSR32
  for (const std::uint32_t rn : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u, 48u,
                                 64u, 96u, 128u, 192u}) {
    Rng rng(2000 + rn);
    const std::uint32_t cols = std::max<std::uint32_t>(2 * rn, 256);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, 192, cols, rn);
    const auto x = sparse::random_dense_vector(rng, cols);
    const auto s = cc_speedups(a, x);
    t.add_row({fmt_u(rn), fmt_speedup(s.ssr), fmt_speedup(s.issr16),
               fmt_speedup(s.issr32), fmt_f(s.issr16_util)});
    lead.emplace_back(rn, s.issr16 - s.issr32);
    if (rn == 192) {
      m[Anchor::kFig4bIssr16Limit] = s.issr16;
      m[Anchor::kFig4bIssr32Limit] = s.issr32;
    }
  }
  m[Anchor::kFig4bCrossover] = crossover(lead);
  t.print();
  t.write_csv("fig4b_csrmv_sweep.csv");

  Table ts("CC CsrMV speedup on the (synthetic) SuiteSparse suite");
  ts.set_header({"matrix", "rows", "nnz", "nnz/row", "SSR", "ISSR16",
                 "ISSR32"});
  for (const auto& name : sparse::quick_suite_names()) {
    const auto a = sparse::build_suite_matrix(name);
    Rng rng(42);
    const auto x = sparse::random_dense_vector(rng, a.cols());
    const auto s = cc_speedups(a, x);
    ts.add_row({name, fmt_u(a.rows()), fmt_u(a.nnz()),
                fmt_f(a.avg_row_nnz(), 1), fmt_speedup(s.ssr),
                a.fits_u16() ? fmt_speedup(s.issr16) : "-",
                fmt_speedup(s.issr32)});
  }
  ts.print();
  ts.write_csv("fig4b_csrmv_suite.csv");

  // CsrMM spot check (§IV-A): tiny matrix, 2-column dense operand.
  const auto a = sparse::build_suite_matrix("ragusa18");
  Rng rng(7);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  const auto mv = checked(driver::run_csrmv_cc(Variant::kIssr,
                                               IndexWidth::kU16, a, x));
  const std::uint32_t bcols = 2;
  const std::uint32_t ldb = 32;  // next pow2 >= cols covering ragusa18
  const auto b = sparse::random_dense_matrix(rng, a.cols(), bcols, ldb);
  core::CcSim sim;
  kernels::CsrmmArgs margs;
  margs.ptr = sim.stage_u32(a.ptr());
  margs.idcs = sim.stage_indices(a.idcs(), IndexWidth::kU16);
  margs.vals = sim.stage(a.vals());
  margs.nrows = a.rows();
  margs.nnz = a.nnz();
  margs.b = sim.alloc(8ull * a.cols() * ldb);
  sim.mem().write_doubles(margs.b, b.data(), b.storage_elems());
  margs.b_cols = bcols;
  margs.ldb_log2 = 5;
  margs.y = sim.alloc(8ull * a.rows() * bcols);
  margs.ldy = bcols;
  margs.width = IndexWidth::kU16;
  sim.set_program(kernels::build_csrmm(Variant::kIssr, margs));
  const double util_mv = mv.sim.fpu_util();
  const double util_mm = sim.run().fpu_util();
  m[Anchor::kCsrmmOverCsrmv] = util_mm / util_mv;
  std::printf("CsrMM vs CsrMV (ragusa18, 64 nnz, 2-column dense):\n"
              "  CsrMV ISSR16 utilization: %.4f\n"
              "  CsrMM ISSR16 utilization: %.4f  (delta %.2f%%)\n\n",
              util_mv, util_mm, 100.0 * (util_mm - util_mv) / util_mv);
}

/// One cluster's CsrMV: the System of one, with no fabric. cores = 0:
/// the library's cluster default (the paper's 8 workers).
system::SysCsrmvResult cluster_csrmv(Variant v, const sparse::CsrMatrix& a,
                                     const sparse::DenseVector& x) {
  return checked(driver::run_csrmv_sys(v, IndexWidth::kU16, 1, 0, a, x,
                                       nullptr, true, {},
                                       driver::SysTuning{.fabric = false}))
      .sys;
}

/// Eight-worker cluster CsrMV of one matrix, BASE and ISSR16.
struct ClusterPair {
  system::SysCsrmvResult base, issr;
  double speedup() const {
    return ratio(base.system.cycles, issr.system.cycles);
  }
};

ClusterPair cluster_pair(const sparse::CsrMatrix& a,
                         const sparse::DenseVector& x) {
  return {cluster_csrmv(Variant::kBase, a, x),
          cluster_csrmv(Variant::kIssr, a, x)};
}

/// The Fig. 4c nnz/row sweep at `rows` rows: the speedup at 1 nnz/row
/// and the peak, with one row per point added to `t` when given.
std::pair<double, double> fig4c_sweep(std::uint32_t rows, Table* t) {
  double at1 = 0.0, peak = 0.0;
  for (const std::uint32_t rn : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 96u, 128u}) {
    Rng rng(3000 + rn);
    const std::uint32_t cols = std::max<std::uint32_t>(2 * rn, 512);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, rows, cols, rn);
    const auto x = sparse::random_dense_vector(rng, cols);
    const auto p = cluster_pair(a, x);
    if (rn == 1) at1 = p.speedup();
    peak = std::max(peak, p.speedup());
    if (t == nullptr) continue;
    // util/conflict read the metrics registry, as `--perf-report` does.
    const auto s = metrics::harvest_system(p.issr.system);
    t->add_row({fmt_u(rn), fmt_u(p.base.system.cycles),
                fmt_u(p.issr.system.cycles), fmt_speedup(p.speedup()),
                fmt_f(s.value("util_fpu")),
                fmt_f(s.value("tcdm_conflict_rate"))});
  }
  return {at1, peak};
}

// Fig. 4c: eight-worker cluster CsrMV speedup of ISSR16 over BASE with
// the double-buffered DMA scheme, on a controlled sweep and on the suite.
// Fig. 4d: the same suite runs through the utilization-scaled power
// model (§IV-D). Expected: 1.9x at 1 nnz/row up to 5.8x, and up to 2.7x
// better energy efficiency (142 -> 53 pJ/fmadd) at 89 -> 194 mW.
void fig4c_4d(Measured& m) {
  std::printf("Fig. 4c reproduction: cluster CsrMV speedup "
              "(ISSR 16-bit over BASE, 8 workers)\n\n");
  Table t("Cluster CsrMV speedup vs avg nnz/row (uniform rows)");
  t.set_header({"nnz/row", "BASE cyc", "ISSR cyc", "speedup", "ISSR util",
                "conflict rate"});
  std::tie(m[Anchor::kFig4cAtNnz1], m[Anchor::kFig4cPeak]) =
      fig4c_sweep(400, &t);
  t.print();
  t.write_csv("fig4c_cluster_sweep.csv");

  Table ts("Cluster CsrMV on the (synthetic) SuiteSparse suite");
  ts.set_header({"matrix", "nnz", "nnz/row", "speedup", "ISSR util",
                 "tiles"});
  Table te("Cluster CsrMV energy per matrix");
  te.set_header({"matrix", "nnz/row", "BASE uJ", "ISSR uJ", "BASE mW",
                 "ISSR mW", "BASE pJ/fmadd", "ISSR pJ/fmadd", "gain"});
  double best_gain = 0.0;
  for (const auto& name : sparse::quick_suite_names()) {
    const auto a = sparse::build_suite_matrix(name);
    if (!a.fits_u16()) continue;
    Rng rng(42);
    const auto x = sparse::random_dense_vector(rng, a.cols());
    const auto p = cluster_pair(a, x);
    ts.add_row({name, fmt_u(a.nnz()), fmt_f(a.avg_row_nnz(), 1),
                fmt_speedup(p.speedup()),
                fmt_f(metrics::harvest_system(p.issr.system)
                          .value("util_fpu")),
                fmt_u(p.issr.plans[0].tiles.size())});
    const auto eb = model::estimate_energy(p.base.system.clusters[0]);
    const auto ei = model::estimate_energy(p.issr.system.clusters[0]);
    const double gain = eb.pj_per_fmadd / ei.pj_per_fmadd;
    best_gain = std::max(best_gain, gain);
    te.add_row({name, fmt_f(a.avg_row_nnz(), 1), fmt_f(eb.energy_uj, 3),
                fmt_f(ei.energy_uj, 3), fmt_f(eb.avg_power_mw, 1),
                fmt_f(ei.avg_power_mw, 1), fmt_f(eb.pj_per_fmadd, 1),
                fmt_f(ei.pj_per_fmadd, 1), fmt_speedup(gain)});
  }
  m[Anchor::kFig4dBestGain] = best_gain;
  ts.print();
  ts.write_csv("fig4c_cluster_suite.csv");

  std::printf("Fig. 4d reproduction: cluster CsrMV energy "
              "(BASE vs ISSR 16-bit)\n\n");
  te.print();
  te.write_csv("fig4d_cluster_energy.csv");

  // The paper's Fig. 4c uses larger matrices; the 1024-row sweep is
  // measured for its anchors only.
  std::tie(m[Anchor::kFig4cAtNnz1Rows1024], m[Anchor::kFig4cPeakRows1024]) =
      fig4c_sweep(1024, nullptr);
}

// §IV-C: the parametric area and timing model (paper defaults: 5-stage
// FIFO, 18-bit indices), its streamer breakdown and a width study.
void area_timing(Measured& m) {
  std::printf("§IV-C reproduction: streamer area and timing model\n\n");
  const model::AreaParams params;
  const auto area = model::streamer_area(params);
  Table t("Streamer area breakdown (kGE)");
  t.set_header({"block", "SSR lane", "ISSR lane"});
  const auto add = [&](const char* block, double model::AreaBreakdown::*f) {
    t.add_row({block, fmt_f(area.ssr.*f, 2), fmt_f(area.issr.*f, 2)});
  };
  add("affine address generator", &model::AreaBreakdown::addrgen_affine);
  add("indirection datapath", &model::AreaBreakdown::indirection);
  add("data mover", &model::AreaBreakdown::data_mover);
  add("data FIFO", &model::AreaBreakdown::data_fifo);
  add("config interface", &model::AreaBreakdown::config_iface);
  t.add_row({"lane total", fmt_f(area.ssr.total(), 2),
             fmt_f(area.issr.total(), 2)});
  t.print();

  std::printf("streamer total (incl. %.2f kGE switch): %.2f kGE\n",
              area.switch_kge, area.total());
  std::printf("ISSR - SSR: %.2f kGE (+%.0f%%)\n", area.issr_minus_ssr(),
              100.0 * area.issr_overhead_frac());
  m[Anchor::kAreaIssrDelta] = area.issr_minus_ssr();
  m[Anchor::kAreaIssrOverhead] = area.issr_overhead_frac();

  const auto cluster = model::cluster_area(params);
  std::printf("\ncluster: CC %.1f kGE x8 + shared %.0f kGE = %.0f kGE\n",
              cluster.cc_kge, cluster.tcdm_periph_kge, cluster.cluster_kge);
  std::printf("cluster-level ISSR overhead: %.2f%%\n",
              100.0 * cluster.issr_overhead_frac);
  m[Anchor::kAreaClusterOverhead] = cluster.issr_overhead_frac;

  const auto timing = model::streamer_timing(params);
  std::printf("\ncritical paths: SSR %.0f ps -> ISSR %.0f ps "
              "(target %.0f ps, %s)\n",
              timing.ssr_path_ps, timing.issr_path_ps,
              timing.clock_target_ps,
              timing.meets_timing() ? "meets 1 GHz" : "VIOLATES");
  m[Anchor::kTimingSsrPath] = timing.ssr_path_ps;
  m[Anchor::kTimingIssrPath] = timing.issr_path_ps;

  Table ws("Width scaling (design-time parameter study)");
  ws.set_header({"index/addr bits", "SSR kGE", "ISSR kGE", "delta kGE",
                 "ISSR path ps"});
  for (const unsigned bits : {16u, 18u, 24u, 32u}) {
    model::AreaParams p;
    p.index_bits = bits;
    p.addr_bits = bits;
    const auto a = model::streamer_area(p);
    ws.add_row({fmt_u(bits), fmt_f(a.ssr.total(), 2),
                fmt_f(a.issr.total(), 2), fmt_f(a.issr_minus_ssr(), 2),
                fmt_f(model::streamer_timing(p).issr_path_ps, 0)});
  }
  ws.print();
}

// §V: the cluster's peak CsrMV FP utilization against the paper's
// published CPU and GPU reference points (tabulated constants).
void comparison(Measured& m) {
  std::printf("§V reproduction: peak FP utilization comparison\n\n");
  // Favorable (high nnz/row) uniform matrices; whole-run utilization.
  double best_util = 0.0;
  for (const std::uint32_t rn : {64u, 128u}) {
    Rng rng(4000 + rn);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, 256, 512, rn);
    const auto x = sparse::random_dense_vector(rng, 512);
    best_util = std::max(
        best_util, cluster_csrmv(Variant::kIssr, a, x).system.fpu_util());
  }
  {
    // Single-CC peak (no bank conflicts): the architectural ceiling.
    Rng rng(5);
    const auto a = sparse::random_fixed_row_nnz_matrix(rng, 64, 512, 128);
    const auto x = sparse::random_dense_vector(rng, 512);
    const auto r = checked(driver::run_csrmv_cc(Variant::kIssr,
                                                IndexWidth::kU16, a, x));
    std::printf("single-CC ISSR16 CsrMV peak utilization: %.3f\n",
                r.sim.fpu_util());
  }
  std::printf("cluster ISSR16 CsrMV peak utilization: %.3f\n\n", best_util);
  m[Anchor::kOverGtx1080Ti] = best_util / model::gtx1080ti_fp64_util();
  m[Anchor::kOverXeonPhi] = best_util / model::xeonphi_cvr_util();

  Table t("Peak FP utilization, CsrMV/SpMV");
  t.set_header({"platform", "precision", "peak FP util", "vs ours"});
  for (const auto& ref : model::reference_points()) {
    t.add_row({ref.platform, ref.precision, fmt_pct(ref.peak_fp_util, 2),
               fmt_speedup(best_util / ref.peak_fp_util, 1)});
  }
  t.add_row({"Snitch cluster + ISSR (this work, simulated)", "FP64",
             fmt_pct(best_util, 2), fmt_speedup(1.0, 1)});
  t.print();
}

/// Prints one line per anchor and returns how many left their limit.
int check_anchors(const Measured& m) {
  Table t("Paper anchors");
  t.set_header({"figure", "quantity", "input", "model", "paper", "rel err",
                "tol", "bound", "status", "cause"});
  int failed = 0;
  for (const auto& r : driver::paper_table()) {
    // NaN fails the row, so an anchor the report forgot to measure fails.
    const double v = m.contains(r.anchor) ? m.at(r.anchor) : std::nan("");
    const bool holds = r.holds(v);
    failed += holds ? 0 : 1;
    t.add_row({r.figure, r.quantity, r.input, fmt_f(v, 4), fmt_f(r.paper, 4),
               fmt_pct(r.rel_err(v)), fmt_pct(r.tol),
               r.deviates() ? fmt_pct(r.bound) : "-",
               !holds                   ? "FAIL"
               : r.rel_err(v) <= r.tol  ? "ok"
                                        : "known",
               r.deviates() ? "item " + std::to_string(r.item) + ": " + r.cause
                            : ""});
  }
  t.print();
  return failed;
}

}  // namespace

int main() {
  Measured m;
  fig4a(m);
  fig4b(m);
  fig4c_4d(m);
  area_timing(m);
  comparison(m);
  const int failed = check_anchors(m);
  if (failed > 0) {
    std::fprintf(stderr, "paper_report: %d anchor(s) outside their limit\n",
                 failed);
    return 1;
  }
  return 0;
}
