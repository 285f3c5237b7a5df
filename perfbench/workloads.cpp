#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.hpp"
#include "core/compile.hpp"
#include "core/sim.hpp"
#include "driver/assets.hpp"
#include "driver/report.hpp"
#include "driver/runs.hpp"
#include "driver/sweep.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/spvv.hpp"
#include "metrics/harvest.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"
#include "system/csrmm_sys.hpp"

namespace perfbench {

namespace {

using namespace issr;
using driver::Kernel;
using driver::Scenario;
using kernels::Variant;
using sparse::IndexWidth;
using sparse::MatrixFamily;
using Clock = std::chrono::steady_clock;

// Fig. 4c anchors (paper §IV-B, Fig. 4c): on an eight-worker cluster the
// 16-bit ISSR CsrMV kernel is 1.9x faster than BASE at nnz/row = 1 and
// reaches up to 5.8x (over 5x for nnz/row > 50).
constexpr double kFig4cSpeedupAtNnz1 = 1.9;
constexpr double kFig4cPeakSpeedup = 5.8;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double rel_err(double model, double paper) {
  return std::abs(model - paper) / paper;
}

/// Largest Fig. 4c deviation given BASE/ISSR cycle pairs ordered by
/// ascending nnz/row, the first at nnz/row = 1.
double fig4c_err(const std::vector<std::pair<double, double>>& base_issr) {
  double peak = 0.0;
  for (const auto& [base, issr] : base_issr) peak = std::max(peak, base / issr);
  const double at1 = base_issr.front().first / base_issr.front().second;
  return std::max(rel_err(at1, kFig4cSpeedupAtNnz1),
                  rel_err(peak, kFig4cPeakSpeedup));
}

/// Appends `m.expand()` to `out`: the scenarios `issr_run` would run for
/// the same axes, with its seed derivation and its shape pinning (SpVV
/// rows, square banded rows, torus rows at the stencil's own shape).
void append(std::vector<Scenario>& out, const driver::ScenarioMatrix& m) {
  const auto sc = m.expand();
  out.insert(out.end(), sc.begin(), sc.end());
}

/// Span names are static strings (spans store the pointer).
const char* core_span(Variant v) {
  return v == Variant::kBase  ? "core.run.base"
         : v == Variant::kSsr ? "core.run.ssr"
                              : "core.run.issr";
}

const char* cluster_span(Variant v) {
  return v == Variant::kBase ? "cluster.run.base" : "cluster.run.issr";
}

/// One driver::run_sweep call, folded into `p` (wall, check values,
/// failures, samples, engine telemetry).
void sweep_into(Pass& p, const std::vector<Scenario>& sc, unsigned jobs,
                Spans& spans) {
  driver::SweepSpec spec;
  spec.scenarios = sc;
  spec.jobs = jobs;
  spec.options.sys_threads = 1;
  driver::SweepOutcome out;
  const auto t0 = Clock::now();
  {
    Scoped span(spans, "driver.run_sweep");
    out = driver::run_sweep(spec);
    span.add_work(out.stats.core_cycles);
  }
  p.wall_s += seconds_since(t0);
  p.core_cycles += out.stats.core_cycles;
  const std::string json = driver::results_to_json(out.results);
  p.fingerprint = fnv1a(json.data(), json.size(), p.fingerprint);
  for (const auto& r : out.results) {
    ++p.runs;
    if (!r.ok) ++p.failures;
    p.samples.push_back({r.core_cycles, r.stalls, r.metrics});
  }
  double busy = 0.0;
  for (const double s : out.run_seconds) busy += s;
  const double capacity = static_cast<double>(std::max(1u, jobs)) *
                          out.stats.wall_seconds;
  p.idle_frac = capacity > 0 ? std::max(0.0, 1.0 - busy / capacity) : 0.0;
  p.steals += out.stats.steals;
  const auto& c = out.stats.cache;
  p.workload_hits += c.workload_hits;
  p.workload_lookups += c.workload_hits + c.workload_builds;
  p.program_hits += c.program_hits;
  p.program_lookups += c.program_hits + c.program_builds;
  p.compiled_hits += c.compiled_hits;
  p.compiled_lookups += c.compiled_hits + c.compiled_builds;
}

/// Distinct workload keys of a scenario list, in first-use order.
std::vector<driver::WorkloadKey> distinct_keys(const std::vector<Scenario>& sc) {
  std::vector<driver::WorkloadKey> keys;
  for (const auto& s : sc) {
    const auto k = driver::workload_key(s);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  return keys;
}

std::vector<driver::Workload> generate_all(const std::vector<Scenario>& sc,
                                           Spans& spans) {
  std::vector<driver::Workload> out;
  for (const auto& k : distinct_keys(sc)) {
    Scoped span(spans, "sparse.generate");
    out.push_back(driver::build_workload(k));
  }
  return out;
}

// --- cc_paper ----------------------------------------------------------------

class CcPaper final : public Workload {
 public:
  CcPaper(std::uint64_t seed, bool small) {
    driver::ScenarioMatrix m;
    m.base_seed = seed;
    // Fig. 4a: SpVV at nnz = 2048 (dim 2 * nnz, as bench/fig4a) plus one
    // long streaming point, BASE/SSR with 32-bit and ISSR with both
    // index widths.
    m.kernels = {Kernel::kSpvv};
    m.densities = {0.5};
    for (const std::uint32_t nnz : {kAnchorNnz, small ? 4096u : 16384u}) {
      m.cols = 2 * nnz;
      m.variants = {Variant::kBase, Variant::kSsr};
      m.widths = {IndexWidth::kU32};
      append(sc_, m);
      m.variants = {Variant::kIssr};
      m.widths = {IndexWidth::kU16, IndexWidth::kU32};
      append(sc_, m);
    }
    // Fig. 4b shape, as `issr_run --kernel csrmv --families
    // uniform,banded,powerlaw,torus --densities 0.02,0.1 --rows 2048
    // --cols 512`: every variant x width. Banded rows run square
    // (512 x 512), torus rows once, at the stencil's 45^2 grid.
    m.kernels = {Kernel::kCsrmv};
    m.variants = {Variant::kBase, Variant::kSsr, Variant::kIssr};
    m.widths = {IndexWidth::kU16, IndexWidth::kU32};
    m.families ={MatrixFamily::kUniform, MatrixFamily::kBanded,
                  MatrixFamily::kPowerLaw, MatrixFamily::kTorus};
    m.densities = {0.02, 0.1};
    m.rows = small ? 48 : 2048;
    m.cols = small ? 96 : 512;
    append(sc_, m);
  }

  void setup(Spans& spans) const override {
    const auto keys = distinct_keys(sc_);
    const auto workloads = generate_all(sc_, spans);
    for (const auto& s : sc_) {
      const auto key = driver::workload_key(s);
      const auto& w = workloads[static_cast<std::size_t>(
          std::find(keys.begin(), keys.end(), key) - keys.begin())];
      core::CcSim sim;
      isa::Program program;
      if (s.kernel == Kernel::kSpvv) {
        kernels::SpvvArgs args;
        args.a_vals = sim.stage(w.spvv_a->vals());
        args.a_idcs = sim.stage_indices(w.spvv_a->idcs(), s.width);
        args.nnz = w.spvv_a->nnz();
        args.b = sim.stage(*w.dense);
        args.result = sim.alloc(8);
        args.width = s.width;
        Scoped span(spans, "kernels.build");
        program = kernels::build_spvv(s.variant, args);
      } else {
        const auto& a = *w.csrmv_a;
        kernels::CsrmvArgs args;
        args.ptr = sim.stage_u32(a.ptr());
        args.idcs = sim.stage_indices(a.idcs(), s.width);
        args.vals = sim.stage(a.vals());
        args.nrows = a.rows();
        args.nnz = a.nnz();
        args.x = sim.stage(*w.dense);
        args.y = sim.alloc(8ull * a.rows());
        args.width = s.width;
        Scoped span(spans, "kernels.build");
        program = kernels::build_csrmv(s.variant, args);
      }
      Scoped span(spans, "core.compile");
      const core::CompiledProgram compiled(program);
      span.add_work(compiled.size());
    }
  }

  Pass pass(Spans& spans) const override {
    Pass p;
    sweep_into(p, sc_, 2, spans);
    return p;
  }

  double paper_err(const Pass& p, Pass&) const override {
    // Fig. 4a utilization anchors, from driver::paper_util_reference.
    double err = 0.0;
    for (std::size_t i = 0; i < sc_.size(); ++i) {
      const auto& s = sc_[i];
      if (s.kernel != Kernel::kSpvv || s.row_nnz() != kAnchorNnz) continue;
      err = std::max(err, rel_err(p.samples[i].metrics.value("util_fpu"),
                                  driver::paper_util_reference(s.variant,
                                                               s.width)));
    }
    return err;
  }

  Pass layers(Spans& spans, Values& values) const override {
    driver::AssetCache cache;
    driver::RunAids aids;
    aids.programs = &cache;
    Pass p;
    std::uint64_t skipped = 0;
    for (const auto& s : sc_) {
      const auto w = cache.workload(s);
      // The first call assembles and translates into the cache; the
      // second, timed one runs with its programs prebuilt.
      for (const bool timed : {false, true}) {
        Scoped span(spans, timed ? core_span(s.variant)
                                 : "driver.run_cc_cold");
        bool ok;
        core::CcSimResult r;
        if (s.kernel == Kernel::kSpvv) {
          auto run = driver::run_spvv_cc(s.variant, s.width, *w->spvv_a,
                                         *w->dense, nullptr, true, aids);
          ok = run.ok;
          r = std::move(run.sim);
        } else {
          auto run = driver::run_csrmv_cc(s.variant, s.width, *w->csrmv_a,
                                          *w->dense, nullptr, true, aids);
          ok = run.ok;
          r = std::move(run.sim);
        }
        if (!timed) continue;
        span.add_work(r.cycles);
        p.core_cycles += r.cycles;
        skipped += r.ff_skipped;
        ++p.runs;
        if (!ok) ++p.failures;
      }
    }
    values["core.ff_skip_frac"] =
        p.core_cycles ? static_cast<double>(skipped) /
                            static_cast<double>(p.core_cycles)
                      : 0.0;
    return p;
  }

 private:
  static constexpr std::uint32_t kAnchorNnz = 2048;
  std::vector<Scenario> sc_;
};

// --- cluster_fig4c -----------------------------------------------------------

class ClusterFig4c final : public Workload {
 public:
  ClusterFig4c(std::uint64_t seed, bool small) {
    // Fig. 4c: BASE and ISSR-u16 on one 8-worker cluster, uniform rows,
    // ascending nnz/row (the first point is the nnz/row = 1 anchor).
    driver::ScenarioMatrix m;
    m.variants = {Variant::kBase, Variant::kIssr};
    m.widths = {IndexWidth::kU16};
    m.densities.clear();
    for (const std::uint32_t rn : {1u, 4u, 16u, 64u, 128u}) {
      m.densities.push_back(static_cast<double>(rn) / kCols);
    }
    m.cores = {kWorkers};
    m.rows = small ? 96 : 1024;
    m.cols = kCols;
    m.base_seed = seed;
    append(sc_, m);
  }

  void setup(Spans& spans) const override { generate_all(sc_, spans); }

  Pass pass(Spans& spans) const override {
    Pass p;
    sweep_into(p, sc_, 1, spans);
    return p;
  }

  double paper_err(const Pass& p, Pass&) const override {
    std::vector<std::pair<double, double>> pairs;
    for (std::size_t i = 0; i + 1 < p.samples.size(); i += 2) {
      pairs.emplace_back(static_cast<double>(p.samples[i].core_cycles),
                         static_cast<double>(p.samples[i + 1].core_cycles));
    }
    return fig4c_err(pairs);
  }

  Pass layers(Spans& spans, Values& values) const override {
    Pass p;
    std::uint64_t cycles = 0, skipped = 0;
    for (const auto& s : sc_) {
      const auto w = driver::build_workload(driver::workload_key(s));
      Scoped span(spans, cluster_span(s.variant));
      const auto r = driver::run_csrmv_mc(s.variant, s.width, s.cores,
                                          *w.csrmv_a, *w.dense);
      const std::uint64_t cc = r.mc.cluster.cycles * s.cores;
      span.add_work(cc);
      p.core_cycles += cc;
      cycles += r.mc.cluster.cycles;
      skipped += r.mc.cluster.ff_skipped;
      ++p.runs;
      if (!r.ok) ++p.failures;
    }
    values["cluster.ff_skip_frac"] =
        cycles ? static_cast<double>(skipped) / static_cast<double>(cycles)
               : 0.0;
    return p;
  }

 private:
  static constexpr std::uint32_t kCols = 512;
  static constexpr unsigned kWorkers = 8;
  std::vector<Scenario> sc_;
};

// --- system_x8 ---------------------------------------------------------------

class SystemX8 final : public Workload {
 public:
  SystemX8(std::uint64_t seed, bool small) : seed_(seed), small_(small) {
    // bench/system_simspeed's four-family mix (shapes), ISSR-u16 on
    // 8 clusters x 8 workers with work stealing and the default NoC.
    struct Member {
      MatrixFamily f;
      std::uint32_t rows, cols, rn;
    };
    const Member mix[] = {
        {MatrixFamily::kUniform, 2048, 2048, 51},
        {MatrixFamily::kBanded, 1024, 1024, 24},
        {MatrixFamily::kTorus, 2304, 2304, 5},
        {MatrixFamily::kPowerLaw, 1024, 512, 24},
    };
    const std::uint32_t div = small ? 8 : 1;
    driver::ScenarioMatrix m;
    m.variants = {Variant::kIssr};
    m.widths = {IndexWidth::kU16};
    m.cores = {kWorkers};
    m.clusters = {kClusters};
    m.base_seed = seed;
    for (const auto& [f, rows, cols, rn] : mix) {
      m.families = {f};
      m.rows = rows / div;
      m.cols = cols / div;
      m.densities = {static_cast<double>(rn) / m.cols};
      append(sc_, m);
    }
  }

  void setup(Spans& spans) const override {
    generate_all(sc_, spans);
    Scoped span(spans, "sparse.generate");
    csrmm_operands();
  }

  Pass pass(Spans& spans) const override {
    Pass p;
    sweep_into(p, sc_, 1, spans);
    const auto [a, b] = csrmm_operands();
    const auto t0 = Clock::now();
    system::SysCsrmmResult r;
    {
      Scoped span(spans, "system.run_csrmm");
      r = system::run_csrmm_system(a, b, csrmm_config());
      span.add_work(r.system.core_cycles());
    }
    p.wall_s += seconds_since(t0);
    ++p.runs;
    const bool ok = !r.system.fault &&
                    sparse::allclose(r.y, sparse::ref_csrmm(a, b), 1e-9, 1e-9);
    if (!ok) ++p.failures;
    p.core_cycles += r.system.core_cycles();
    p.fingerprint = fnv1a(r.y.data(), r.y.storage_elems() * sizeof(double),
                          p.fingerprint);
    p.fingerprint = fnv1a(&r.system.cycles, sizeof r.system.cycles,
                          p.fingerprint);
    p.samples.push_back({r.system.core_cycles(), r.system.total_stalls(),
                         metrics::harvest_system(r.system)});
    return p;
  }

  double paper_err(const Pass&, Pass& anchor_runs) const override {
    // The paper has no multi-cluster anchor: hold the System model at one
    // cluster (the paper's configuration) to the Fig. 4c anchors.
    const std::uint32_t rows = small_ ? 96 : 1024;
    Rng rng(seed_ ^ 0x4c4c4c4cull);
    std::vector<std::pair<double, double>> pairs;
    for (const std::uint32_t rn : {1u, 64u, 128u}) {
      const auto a =
          sparse::random_fixed_row_nnz_matrix(rng, rows, 512, rn);
      const auto x = sparse::random_dense_vector(rng, a.cols());
      const auto cycles = [&](Variant v) {
        const auto r =
            driver::run_csrmv_sys(v, IndexWidth::kU16, 1, kWorkers, a, x);
        ++anchor_runs.runs;
        if (!r.ok || r.sys.system.fault) ++anchor_runs.failures;
        return static_cast<double>(r.sys.system.cycles);
      };
      pairs.emplace_back(cycles(Variant::kBase), cycles(Variant::kIssr));
    }
    return fig4c_err(pairs);
  }

  Pass layers(Spans& spans, Values& values) const override {
    std::vector<driver::Workload> ws;
    for (const auto& s : sc_) {
      ws.push_back(driver::build_workload(driver::workload_key(s)));
    }
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned par_threads = std::min(kClusters, hw);
    Pass p;
    std::uint64_t cycles = 0;  // system cycles of the parallel runs
    system::ParStats par;
    double serial_s = 0.0, par_s = 0.0;
    for (const bool parallel : {false, true}) {
      driver::SysTuning tuning;
      tuning.sys_threads = parallel ? par_threads : 1;
      for (std::size_t i = 0; i < sc_.size(); ++i) {
        const auto t0 = Clock::now();
        Scoped span(spans, parallel ? "system.run_csrmv_par"
                                    : "system.run_csrmv");
        const auto r = driver::run_csrmv_sys(
            Variant::kIssr, IndexWidth::kU16, kClusters, kWorkers,
            *ws[i].csrmv_a, *ws[i].dense, nullptr, true, {}, tuning);
        span.add_work(r.sys.system.core_cycles());
        ++p.runs;
        if (!r.ok || r.sys.system.fault) ++p.failures;
        (parallel ? par_s : serial_s) += seconds_since(t0);
        if (parallel) {
          cycles += r.sys.system.cycles;
          par.merge(r.sys.system.par);
        } else {
          p.core_cycles += r.sys.system.core_cycles();
        }
      }
    }
    const auto [a, b] = csrmm_operands();
    {
      Scoped span(spans, "system.run_csrmm");
      const auto r = system::run_csrmm_system(a, b, csrmm_config());
      span.add_work(r.system.core_cycles());
      p.core_cycles += r.system.core_cycles();
      ++p.runs;
      if (r.system.fault) ++p.failures;
    }
    values["system.par_speedup"] = par_s > 0 ? serial_s / par_s : 0.0;
    values["system.lockstep_frac"] =
        cycles ? static_cast<double>(par.lockstep_cycles) /
                     static_cast<double>(cycles)
               : 0.0;
    values["system.rounds"] = static_cast<double>(par.rounds);
    values["system.barrier_wait_us"] = static_cast<double>(par.barrier_wait_us);
    return p;
  }

 private:
  static constexpr unsigned kClusters = 8;
  static constexpr unsigned kWorkers = 8;

  std::pair<sparse::CsrMatrix, sparse::DenseMatrix> csrmm_operands() const {
    Rng rng(seed_ ^ 0x6d6d6d6dull);
    const std::uint32_t n = small_ ? 128 : 1024;
    auto a = sparse::random_fixed_row_nnz_matrix(rng, n, n, 16);
    auto b = sparse::random_dense_matrix(rng, a.cols(), 8);
    return {std::move(a), std::move(b)};
  }

  static system::SysCsrmmConfig csrmm_config() {
    system::SysCsrmmConfig cfg;  // ISSR-u16, stealing, serial engine
    cfg.system.num_clusters = kClusters;
    cfg.system.cluster.num_workers = kWorkers;
    return cfg;
  }

  std::uint64_t seed_;
  bool small_;
  std::vector<Scenario> sc_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small) {
  if (name == "cc_paper") return std::make_unique<CcPaper>(seed, small);
  if (name == "cluster_fig4c") {
    return std::make_unique<ClusterFig4c>(seed, small);
  }
  if (name == "system_x8") return std::make_unique<SystemX8>(seed, small);
  return nullptr;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
