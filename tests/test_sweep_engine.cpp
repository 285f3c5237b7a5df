// Sweep-engine tests: run_sweep against its reference, a serial loop of
// run_scenario with no asset cache and no arena (bytewise-identical
// JSON/CSV/trace outputs across jobs 1/4/8 and reps 1/3), asset-cache
// identity semantics (pointer-identical assets for equal keys, distinct
// for differing seeds), cost-model ordering, and sweep telemetry.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "core/compile.hpp"
#include "driver/assets.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "isa/program.hpp"
#include "kernels/csrmv.hpp"
#include "sparse/generate.hpp"

namespace issr::driver {
namespace {

/// A mixed sweep shaped like the paper-figure matrix: fig4a (single-CC
/// SpVV), fig4b (single-CC CsrMV across variants), fig4c (cluster CsrMV)
/// — small shapes, full engine diversity.
std::vector<Scenario> mixed_fig_scenarios() {
  ScenarioMatrix m;
  m.kernels = {Kernel::kSpvv, Kernel::kCsrmv};
  m.variants = {kernels::Variant::kBase, kernels::Variant::kSsr,
                kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16, sparse::IndexWidth::kU32};
  m.families = {sparse::MatrixFamily::kUniform,
                sparse::MatrixFamily::kPowerLaw};
  m.densities = {0.1};
  m.cores = {1, 4};
  m.rows = 32;
  m.cols = 64;
  return m.expand();
}

SweepOutcome sweep(const std::vector<Scenario>& scenarios, unsigned jobs,
                   unsigned reps = 1, const RunOptions& opts = {}) {
  SweepSpec spec;
  spec.scenarios = scenarios;
  spec.jobs = jobs;
  spec.reps = reps;
  spec.options = opts;
  return run_sweep(spec);
}

// --- Bytewise refinement of the serial reference -----------------------------

/// The shared asset cache, the arenas, the task queue and its workers,
/// reps and tracing are all refinements of running each scenario alone:
/// every configuration must emit the reference's result and trace bytes.
TEST(SweepEngine, MatchesSerialRunScenarioReference) {
  namespace fs = std::filesystem;
  const auto scenarios = mixed_fig_scenarios();
  ASSERT_GE(scenarios.size(), 10u);
  const fs::path base = fs::temp_directory_path() / "issr_sweep_ref_test";
  const fs::path ref_dir = base / "reference";
  const fs::path sweep_dir = base / "sweep";
  fs::remove_all(base);
  fs::create_directories(ref_dir);
  fs::create_directories(sweep_dir);

  RunOptions traced;
  traced.trace_events = 1 << 12;
  traced.trace_dir = ref_dir.string();
  std::vector<ScenarioResult> reference;
  for (const auto& s : scenarios) reference.push_back(run_scenario(s, traced));
  const std::string ref_json = results_to_json(reference);
  const std::string ref_csv = results_to_csv(reference);

  traced.trace_dir = sweep_dir.string();
  for (const unsigned jobs : {1u, 4u, 8u}) {
    for (const unsigned reps : {1u, 3u}) {
      const bool trace = jobs == 4 && reps == 3;
      const auto got =
          sweep(scenarios, jobs, reps, trace ? traced : RunOptions{});
      EXPECT_EQ(results_to_json(got.results), ref_json)
          << "jobs=" << jobs << " reps=" << reps;
      EXPECT_EQ(results_to_csv(got.results), ref_csv)
          << "jobs=" << jobs << " reps=" << reps;
      EXPECT_EQ(got.stats.runs, scenarios.size() * reps);
    }
  }

  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  for (const auto& s : scenarios) {
    const std::string want = trace_file_path(ref_dir.string(), s);
    const std::string got = trace_file_path(sweep_dir.string(), s);
    ASSERT_TRUE(fs::exists(want)) << want;
    ASSERT_TRUE(fs::exists(got)) << got;
    EXPECT_EQ(slurp(got), slurp(want)) << s.name();
  }
  fs::remove_all(base);
}

TEST(SweepEngine, OutputsAreRepInvariant) {
  auto scenarios = mixed_fig_scenarios();
  scenarios.resize(6);  // keep the rep sweep quick
  const auto once = sweep(scenarios, 2, /*reps=*/1);
  const auto thrice = sweep(scenarios, 8, /*reps=*/3);
  EXPECT_EQ(results_to_json(once.results), results_to_json(thrice.results));
  EXPECT_EQ(thrice.stats.runs, scenarios.size() * 3);
  // Reps share the scenario's workload: builds stay at the unique-key
  // count while hits grow with reps.
  EXPECT_EQ(thrice.stats.cache.workload_builds,
            once.stats.cache.workload_builds);
  EXPECT_GT(thrice.stats.cache.workload_hits, once.stats.cache.workload_hits);
  // Reps replay identical staged arguments, so the single-CC rows hit
  // both the Program cache and the compiled-translation cache: one
  // decode per distinct program, shared across every rep.
  EXPECT_EQ(thrice.stats.cache.compiled_builds,
            thrice.stats.cache.program_builds);
  EXPECT_EQ(thrice.stats.cache.compiled_hits, thrice.stats.cache.program_hits);
  EXPECT_GT(thrice.stats.cache.compiled_hits, 0u);
}

// --- Asset cache identity ----------------------------------------------------

TEST(AssetCache, EqualKeysShareOneAsset) {
  const auto scenarios = mixed_fig_scenarios();
  // A variant/width/cores sweep shares one workload per (kernel, family,
  // density, shape) by design — find two scenarios with equal keys.
  const Scenario* a = nullptr;
  const Scenario* b = nullptr;
  for (std::size_t i = 0; i < scenarios.size() && b == nullptr; ++i) {
    for (std::size_t j = i + 1; j < scenarios.size(); ++j) {
      if (workload_key(scenarios[i]) == workload_key(scenarios[j])) {
        a = &scenarios[i];
        b = &scenarios[j];
        break;
      }
    }
  }
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  AssetCache cache;
  const auto wa = cache.workload(*a);
  const auto wb = cache.workload(*b);
  EXPECT_EQ(wa.get(), wb.get());  // pointer-identical shared asset
  const auto stats = cache.stats();
  EXPECT_EQ(stats.workload_builds, 1u);
  EXPECT_EQ(stats.workload_hits, 1u);
}

TEST(AssetCache, DifferingSeedsGetDistinctAssets) {
  Scenario s;
  s.kernel = Kernel::kCsrmv;
  s.family = sparse::MatrixFamily::kUniform;
  s.rows = 16;
  s.cols = 32;
  s.density = 0.1;
  s.seed = derive_seed(1, s.kernel, s.family, s.density, s.rows, s.cols);
  Scenario t = s;
  t.seed = derive_seed(2, t.kernel, t.family, t.density, t.rows, t.cols);
  ASSERT_NE(s.seed, t.seed);

  AssetCache cache;
  const auto ws = cache.workload(s);
  const auto wt = cache.workload(t);
  EXPECT_NE(ws.get(), wt.get());
  // Distinct seeds generate distinct values, not just distinct objects.
  ASSERT_EQ(ws->csrmv_a->nnz(), wt->csrmv_a->nnz());
  EXPECT_NE(ws->csrmv_a->vals(), wt->csrmv_a->vals());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.workload_builds, 2u);
  EXPECT_EQ(stats.workload_hits, 0u);
}

TEST(AssetCache, CachedWorkloadEqualsFreshBuild) {
  Scenario s;
  s.kernel = Kernel::kCsrmv;
  s.family = sparse::MatrixFamily::kPowerLaw;
  s.rows = 24;
  s.cols = 48;
  s.density = 0.1;
  s.seed = derive_seed(7, s.kernel, s.family, s.density, s.rows, s.cols);

  AssetCache cache;
  const auto cached = cache.workload(s);
  const Workload fresh = build_workload(workload_key(s));
  EXPECT_EQ(cached->csrmv_a->vals(), fresh.csrmv_a->vals());
  EXPECT_EQ(cached->csrmv_a->idcs(), fresh.csrmv_a->idcs());
  EXPECT_EQ(cached->csrmv_a->ptr(), fresh.csrmv_a->ptr());
  EXPECT_EQ(cached->dense->vec(), fresh.dense->vec());
}

TEST(AssetCache, SharedProgramEqualsFreshAssembly) {
  kernels::CsrmvArgs args;
  args.ptr = 0x1000'0000;
  args.idcs = 0x1000'0100;
  args.vals = 0x1000'0200;
  args.nrows = 8;
  args.nnz = 40;
  args.x = 0x1000'0400;
  args.y = 0x1000'0800;
  args.width = sparse::IndexWidth::kU16;
  const auto build = [&] {
    return kernels::build_csrmv(kernels::Variant::kIssr, args);
  };

  AssetCache cache;
  const auto p1 = cache.program("csrmv-test-key", build);
  const auto p2 = cache.program("csrmv-test-key", build);
  EXPECT_EQ(p1.get(), p2.get());  // built once, shared
  EXPECT_TRUE(*p1 == build());    // and identical to a fresh assembly
  const auto stats = cache.stats();
  EXPECT_EQ(stats.program_builds, 1u);
  EXPECT_EQ(stats.program_hits, 1u);
}

TEST(AssetCache, CompiledKeyCarriesSchemaAndEngineProvenance) {
  const std::string key = compiled_program_key("csrmv-test-key");
  // Schema tag first, then every engine provenance field: a cache entry
  // can never be served to a different translator build.
  EXPECT_EQ(key.rfind("compiled.v5/", 0), 0u);
  EXPECT_NE(key.find(engine_version()), std::string::npos);
  EXPECT_NE(key.find(engine_build_type()), std::string::npos);
  EXPECT_NE(key.find("/lto="), std::string::npos);
  // The program identity survives qualification verbatim.
  EXPECT_NE(key.find("csrmv-test-key"), std::string::npos);
  EXPECT_NE(key, compiled_program_key("other-key"));
}

TEST(AssetCache, SharedCompiledTranslationBuiltOnce) {
  kernels::CsrmvArgs args;
  args.ptr = 0x1000'0000;
  args.idcs = 0x1000'0100;
  args.vals = 0x1000'0200;
  args.nrows = 8;
  args.nnz = 40;
  args.x = 0x1000'0400;
  args.y = 0x1000'0800;
  args.width = sparse::IndexWidth::kU16;
  const auto program = kernels::build_csrmv(kernels::Variant::kIssr, args);
  const auto build = [&] { return core::CompiledProgram(program); };

  AssetCache cache;
  const std::string key = compiled_program_key("csrmv-test-key");
  const auto c1 = cache.compiled(key, build);
  const auto c2 = cache.compiled(key, build);
  EXPECT_EQ(c1.get(), c2.get());  // translated once, shared
  // Identical size to a fresh translation of the same program.
  const core::CompiledProgram fresh(program);
  EXPECT_EQ(c1->size(), fresh.size());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.compiled_builds, 1u);
  EXPECT_EQ(stats.compiled_hits, 1u);
  EXPECT_EQ(stats.program_builds, 0u);  // separate namespace from Programs
}

// --- Scheduler telemetry and cost model --------------------------------------

TEST(SweepEngine, CacheCountsUniqueWorkloadsOnce) {
  const auto scenarios = mixed_fig_scenarios();
  std::size_t unique = 0;
  {
    std::vector<WorkloadKey> seen;
    for (const auto& s : scenarios) {
      const auto k = workload_key(s);
      bool found = false;
      for (const auto& e : seen) found |= e == k;
      if (!found) {
        seen.push_back(k);
        ++unique;
      }
    }
  }
  ASSERT_LT(unique, scenarios.size());  // the mix must actually share

  const auto outcome = sweep(scenarios, 4);
  EXPECT_EQ(outcome.stats.cache.workload_builds, unique);
  EXPECT_EQ(outcome.stats.cache.workload_hits, scenarios.size() - unique);
  EXPECT_EQ(outcome.stats.runs, scenarios.size());
  EXPECT_GT(outcome.stats.core_cycles, 0u);
  EXPECT_GT(outcome.stats.wall_seconds, 0.0);
  // Every cached Program fetch is paired with a translation fetch under
  // the qualified key, so the counters mirror exactly: one translation
  // per distinct program.
  EXPECT_EQ(outcome.stats.cache.compiled_builds,
            outcome.stats.cache.program_builds);
  EXPECT_EQ(outcome.stats.cache.compiled_hits,
            outcome.stats.cache.program_hits);
}

TEST(SweepEngine, CostModelOrdersByWorkAndEngine) {
  Scenario small;
  small.kernel = Kernel::kCsrmv;
  small.variant = kernels::Variant::kIssr;
  small.rows = 32;
  small.cols = 64;
  small.density = 0.05;

  Scenario big = small;
  big.rows = 512;
  big.cols = 1024;
  EXPECT_GT(estimated_cost(big), estimated_cost(small));

  Scenario base = small;
  base.variant = kernels::Variant::kBase;
  EXPECT_GT(estimated_cost(base), estimated_cost(small));

  Scenario cluster = small;
  cluster.cores = 8;
  EXPECT_GT(estimated_cost(cluster), estimated_cost(small));

  Scenario denser = small;
  denser.density = 0.2;
  EXPECT_GT(estimated_cost(denser), estimated_cost(small));
}

// --- Pinned sweep mix ----------------------------------------------------------

/// A fixed cache-friendly fig4a/4b/4c mix, 17 scenarios: ISSR CsrMV at
/// both widths over four families and two low densities (14 rows sharing
/// 7 workloads; torus pins its own density), SpVV at both widths, and one
/// 8-worker cluster CsrMV declared last.
std::vector<Scenario> throughput_mix() {
  std::vector<Scenario> out;
  ScenarioMatrix csrmv;
  csrmv.kernels = {Kernel::kCsrmv};
  csrmv.variants = {kernels::Variant::kIssr};
  csrmv.families = {
      sparse::MatrixFamily::kUniform, sparse::MatrixFamily::kBanded,
      sparse::MatrixFamily::kPowerLaw, sparse::MatrixFamily::kTorus};
  csrmv.densities = {0.01, 0.02};
  csrmv.cores = {1};
  csrmv.rows = 512;
  csrmv.cols = 1024;
  csrmv.base_seed = 42;
  for (const auto& s : csrmv.expand()) out.push_back(s);

  ScenarioMatrix spvv;
  spvv.kernels = {Kernel::kSpvv};
  spvv.variants = {kernels::Variant::kIssr};
  spvv.densities = {0.25};
  spvv.cols = 16384;
  spvv.base_seed = 42;
  for (const auto& s : spvv.expand()) out.push_back(s);

  ScenarioMatrix cluster;
  cluster.kernels = {Kernel::kCsrmv};
  cluster.variants = {kernels::Variant::kIssr};
  cluster.widths = {sparse::IndexWidth::kU16};
  cluster.families = {sparse::MatrixFamily::kUniform};
  cluster.densities = {0.02};
  cluster.cores = {8};
  cluster.rows = 256;
  cluster.cols = 512;
  cluster.base_seed = 42;
  for (const auto& s : cluster.expand()) out.push_back(s);
  return out;
}

TEST(SweepEngine, ThroughputMixCoreCycles) {
  const auto scenarios = throughput_mix();
  ASSERT_EQ(scenarios.size(), 17u);
  const auto outcome = sweep(scenarios, 2);
  ASSERT_EQ(outcome.results.size(), scenarios.size());
  for (const auto& r : outcome.results) {
    EXPECT_TRUE(r.ok) << r.scenario.name();
  }
  EXPECT_EQ(outcome.stats.core_cycles, 209552u);
}

TEST(SweepEngine, EmptySweepIsWellFormed) {
  const auto outcome = sweep({}, 4, 3);
  EXPECT_TRUE(outcome.results.empty());
  EXPECT_EQ(outcome.stats.runs, 0u);
}

}  // namespace
}  // namespace issr::driver
