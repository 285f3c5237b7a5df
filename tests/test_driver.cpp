// Experiment-driver tests: scenario-matrix expansion, deterministic seed
// derivation, JSON/CSV emission, and serial-vs-parallel sweep equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/runs.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "sparse/generate.hpp"

namespace issr::driver {
namespace {

// --- Scenario matrix expansion ----------------------------------------------

TEST(ScenarioMatrix, ExpandsFullCartesianProduct) {
  ScenarioMatrix m;
  m.kernels = {Kernel::kCsrmv};
  m.variants = {kernels::Variant::kBase, kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16, sparse::IndexWidth::kU32};
  m.families = {sparse::MatrixFamily::kUniform, sparse::MatrixFamily::kBanded};
  m.densities = {0.01, 0.1};
  m.cores = {1, 8};
  const auto scenarios = m.expand();
  EXPECT_EQ(scenarios.size(), 2u * 2u * 2u * 2u * 2u);

  // Every scenario is distinct.
  std::set<std::string> names;
  for (const auto& s : scenarios) {
    names.insert(s.name());
  }
  EXPECT_EQ(names.size(), scenarios.size());
}

TEST(ScenarioMatrix, SkipsMulticoreSpvv) {
  ScenarioMatrix m;
  m.kernels = {Kernel::kSpvv, Kernel::kCsrmv};
  m.variants = {kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.cores = {1, 8};
  const auto scenarios = m.expand();
  // SpVV contributes only the cores=1 point; CsrMV contributes both.
  ASSERT_EQ(scenarios.size(), 3u);
  for (const auto& s : scenarios) {
    if (s.kernel == Kernel::kSpvv) {
      EXPECT_EQ(s.cores, 1u);
    }
  }
}

TEST(ScenarioMatrix, SpvvPinsIgnoredAxes) {
  // The family and rows axes do not apply to SpVV; they are pinned to
  // canonical values (uniform, 1) rather than crossed, so a multi-family
  // sweep does not emit mislabeled duplicate SpVV scenarios.
  ScenarioMatrix m;
  m.kernels = {Kernel::kSpvv};
  m.variants = {kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.families = {sparse::MatrixFamily::kBanded, sparse::MatrixFamily::kTorus};
  m.rows = 500;
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].family, sparse::MatrixFamily::kUniform);
  EXPECT_EQ(scenarios[0].rows, 1u);
}

TEST(ScenarioMatrix, TorusPinsDensityToActualStructure) {
  // Torus structure is fixed; the density axis is pinned to the
  // generated 5-point stencil's actual density instead of crossed.
  ScenarioMatrix m;
  m.kernels = {Kernel::kCsrmv};
  m.variants = {kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.families = {sparse::MatrixFamily::kTorus};
  m.densities = {0.02, 0.1};
  m.rows = 192;
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(torus_side(192), 13u);
  EXPECT_DOUBLE_EQ(scenarios[0].density, 5.0 / (13.0 * 13.0));
  // Shape is pinned to the actual side^2 grid, so the derived
  // target nnz/row is exactly the stencil's 5.
  EXPECT_EQ(scenarios[0].rows, 169u);
  EXPECT_EQ(scenarios[0].cols, 169u);
  EXPECT_EQ(scenarios[0].row_nnz(), 5u);

  // Other families still sweep the full density axis alongside.
  m.families = {sparse::MatrixFamily::kTorus, sparse::MatrixFamily::kUniform};
  EXPECT_EQ(m.expand().size(), 3u);
}

TEST(ScenarioMatrix, BandedPinsSquareShape) {
  // Banded matrices are min(rows, cols)-square; the scenario records
  // that shape so its density axis targets the generated column count.
  ScenarioMatrix m;
  m.kernels = {Kernel::kCsrmv};
  m.variants = {kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.families = {sparse::MatrixFamily::kBanded};
  m.densities = {0.05};
  m.rows = 192;
  m.cols = 256;
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].rows, 192u);
  EXPECT_EQ(scenarios[0].cols, 192u);
  EXPECT_EQ(scenarios[0].row_nnz(), 10u);  // 0.05 * 192
}

TEST(ScenarioMatrix, ExpansionIsDeterministic) {
  ScenarioMatrix m;
  m.densities = {0.01, 0.05, 0.2};
  m.cores = {1, 2, 8};
  const auto a = m.expand();
  const auto b = m.expand();
  EXPECT_EQ(a, b);
}

TEST(ScenarioMatrix, SeedIndependentOfComparisonAxes) {
  // Variant / width / cores must see identical workloads (their cycle
  // counts are compared within a sweep), so the derived seed depends only
  // on kernel, family, density, and shape.
  ScenarioMatrix m;
  m.variants = {kernels::Variant::kBase, kernels::Variant::kSsr,
                kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16, sparse::IndexWidth::kU32};
  m.cores = {1, 8};
  const auto scenarios = m.expand();
  ASSERT_GT(scenarios.size(), 1u);
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.seed, scenarios.front().seed) << s.name();
  }
}

TEST(ScenarioMatrix, SeedVariesWithWorkloadAxes) {
  ScenarioMatrix m;
  m.variants = {kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.densities = {0.01, 0.02, 0.04};
  m.families = {sparse::MatrixFamily::kUniform,
                sparse::MatrixFamily::kPowerLaw};
  const auto scenarios = m.expand();
  std::set<std::uint64_t> seeds;
  for (const auto& s : scenarios) {
    seeds.insert(s.seed);
  }
  EXPECT_EQ(seeds.size(), scenarios.size());

  ScenarioMatrix m2 = m;
  m2.base_seed = m.base_seed + 1;
  EXPECT_NE(m2.expand().front().seed, scenarios.front().seed);
}

TEST(Scenario, RowNnzFollowsDensity) {
  Scenario s;
  s.cols = 200;
  s.density = 0.05;
  EXPECT_EQ(s.row_nnz(), 10u);
  s.density = 1e-9;  // clamps up to one nonzero per row
  EXPECT_EQ(s.row_nnz(), 1u);
  s.density = 1.0;
  EXPECT_EQ(s.row_nnz(), 200u);
}

TEST(Scenario, ParseHelpersRoundTrip) {
  Kernel k;
  EXPECT_TRUE(parse_kernel("spvv", k));
  EXPECT_EQ(k, Kernel::kSpvv);
  EXPECT_FALSE(parse_kernel("gemm", k));

  kernels::Variant v;
  EXPECT_TRUE(parse_variant("issr", v));
  EXPECT_EQ(v, kernels::Variant::kIssr);
  EXPECT_FALSE(parse_variant("", v));

  sparse::IndexWidth w;
  EXPECT_TRUE(parse_width("16", w));
  EXPECT_EQ(w, sparse::IndexWidth::kU16);
  EXPECT_TRUE(parse_width("u32", w));
  EXPECT_EQ(w, sparse::IndexWidth::kU32);
  EXPECT_FALSE(parse_width("64", w));

  sparse::MatrixFamily f;
  EXPECT_TRUE(parse_family("powerlaw", f));
  EXPECT_EQ(f, sparse::MatrixFamily::kPowerLaw);
  EXPECT_FALSE(parse_family("dense", f));
}

TEST(Scenario, NameCarriesSystemTokensOnlyForMultiCluster) {
  Scenario s;
  s.noc_links = 2;
  s.noc_latency = 9;
  s.steal = false;
  // Single-cluster scenarios execute on the cluster/CC simulators, which
  // have no NoC: whatever the system settings say, their names stay
  // exactly the historical single-cluster names.
  EXPECT_EQ(s.name().find("/nl"), std::string::npos);
  EXPECT_EQ(s.name().find("/lt"), std::string::npos);
  EXPECT_EQ(s.name().find("/nosteal"), std::string::npos);
  s.clusters = 8;
  EXPECT_NE(s.name().find("/x8/nl2/lt9/nosteal"), std::string::npos);
  // Default settings keep the historical multi-cluster name bytewise.
  s.noc_links = 1;
  s.noc_latency = 4;
  s.steal = true;
  const auto name = s.name();
  EXPECT_NE(name.find("/x8"), std::string::npos);
  EXPECT_EQ(name.find("/nl"), std::string::npos);
  EXPECT_EQ(name.find("/lt"), std::string::npos);
  EXPECT_EQ(name.find("/nosteal"), std::string::npos);
}

// --- Sweep-scheduler cost model ----------------------------------------------

TEST(Sweep, EstimatedCostModelsPowerLawShardSkew) {
  Scenario uniform;
  uniform.kernel = Kernel::kCsrmv;
  uniform.rows = 2048;
  uniform.cols = 1024;
  uniform.density = 0.02;
  uniform.cores = 8;
  Scenario powerlaw = uniform;
  powerlaw.family = sparse::MatrixFamily::kPowerLaw;
  // One cluster has no shard skew: the two families cost the same.
  EXPECT_DOUBLE_EQ(estimated_cost(powerlaw), estimated_cost(uniform));
  // Across clusters the heaviest power-law shard runs ~2x the mean (a
  // hub row is an unsplittable serial chain), and every cluster's
  // workers spend the cycles the heaviest shard stretches — the
  // dispatch key must rank the power-law run well ahead of its uniform
  // twin or the sweep tail-latches on it.
  uniform.clusters = 8;
  powerlaw.clusters = 8;
  EXPECT_DOUBLE_EQ(estimated_cost(powerlaw), 2.0 * estimated_cost(uniform));
}

TEST(Sweep, EstimatedCostDividesByEffectiveSysThreads) {
  Scenario s;
  s.kernel = Kernel::kCsrmv;
  s.rows = 2048;
  s.cols = 1024;
  s.density = 0.02;
  s.cores = 8;
  s.clusters = 8;
  // The parallel System engine shrinks a multi-cluster run's wall-clock
  // by min(clusters, threads); the LPT dispatch key must track that or
  // a parallelized 8-cluster row hogs the front of the schedule it no
  // longer deserves.
  EXPECT_DOUBLE_EQ(estimated_cost(s, 4), estimated_cost(s) / 4.0);
  EXPECT_DOUBLE_EQ(estimated_cost(s, 8), estimated_cost(s) / 8.0);
  // Threads beyond the cluster count have no lanes to run: the divisor
  // saturates at the cluster count.
  EXPECT_DOUBLE_EQ(estimated_cost(s, 64), estimated_cost(s, 8));
  // Single-cluster runs use the serial engine at every thread count.
  s.clusters = 1;
  EXPECT_DOUBLE_EQ(estimated_cost(s, 8), estimated_cost(s));
}

// --- Single-scenario execution ----------------------------------------------

ScenarioMatrix tiny_matrix() {
  ScenarioMatrix m;
  m.kernels = {Kernel::kCsrmv};
  m.variants = {kernels::Variant::kBase, kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.densities = {0.1};
  m.cores = {1};
  m.rows = 24;
  m.cols = 48;
  return m;
}

TEST(RunScenario, CsrmvValidatesAndReportsMetrics) {
  const auto scenarios = tiny_matrix().expand();
  ASSERT_EQ(scenarios.size(), 2u);
  const auto base = run_scenario(scenarios[0]);
  const auto issr = run_scenario(scenarios[1]);
  for (const auto* r : {&base, &issr}) {
    EXPECT_TRUE(r->ok) << r->scenario.name();
    EXPECT_GT(r->cycles, 0u);
    EXPECT_GT(r->nnz, 0u);
    EXPECT_GT(r->macs, 0u);
    EXPECT_GT(r->fpu_util, 0.0);
  }
  // Same derived seed => same workload => comparable cycle counts; the
  // ISSR kernel must beat BASE even on a tiny matrix.
  EXPECT_EQ(base.nnz, issr.nnz);
  EXPECT_LT(issr.cycles, base.cycles);
}

TEST(RunScenario, TorusReportsActualDimensions) {
  // The torus family has fixed structure (sqrt(rows)-sided grid); the
  // result record must carry the generated dimensions, not the request.
  Scenario s;
  s.kernel = Kernel::kCsrmv;
  s.variant = kernels::Variant::kIssr;
  s.width = sparse::IndexWidth::kU16;
  s.family = sparse::MatrixFamily::kTorus;
  s.rows = 192;
  s.cols = 256;
  s.seed = derive_seed(42, s.kernel, s.family, s.density, s.rows, s.cols);
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.rows, 169u);  // floor(sqrt(192))^2
  EXPECT_EQ(r.cols, 169u);
  EXPECT_EQ(r.nnz, 5u * 169u);  // 5-point stencil with diagonal
}

TEST(RunScenario, SpvvValidates) {
  Scenario s;
  s.kernel = Kernel::kSpvv;
  s.variant = kernels::Variant::kIssr;
  s.width = sparse::IndexWidth::kU32;
  s.density = 0.25;
  s.rows = 1;
  s.cols = 128;
  s.seed = derive_seed(7, s.kernel, s.family, s.density, s.rows, s.cols);
  const auto r = run_scenario(s);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.nnz, 32u);
  EXPECT_GT(r.cycles, 0u);
}

// --- Parallel sweep determinism ---------------------------------------------

TEST(RunScenarios, ParallelMatchesSerialBitwise) {
  auto m = tiny_matrix();
  m.variants = {kernels::Variant::kBase, kernels::Variant::kSsr,
                kernels::Variant::kIssr};
  m.densities = {0.05, 0.2};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 6u);

  const auto serial = run_scenarios(scenarios, 1);
  const auto parallel = run_scenarios(scenarios, 4);
  ASSERT_EQ(serial.size(), parallel.size());

  // Results must agree field-for-field, and the emitted documents must be
  // bytewise identical (the acceptance bar for the issr_run CLI).
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scenario, parallel[i].scenario);
    EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << i;
    EXPECT_EQ(serial[i].macs, parallel[i].macs) << i;
    EXPECT_EQ(serial[i].nnz, parallel[i].nnz) << i;
    EXPECT_EQ(serial[i].fpu_util, parallel[i].fpu_util) << i;
  }
  EXPECT_EQ(results_to_json(serial), results_to_json(parallel));
  EXPECT_EQ(results_to_csv(serial), results_to_csv(parallel));
}

TEST(RunScenarios, MoreJobsThanScenarios) {
  ScenarioMatrix m = tiny_matrix();
  m.variants = {kernels::Variant::kIssr};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  const auto results = run_scenarios(scenarios, 16);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
}

// --- Report emission ---------------------------------------------------------

std::vector<ScenarioResult> fake_results() {
  Scenario s;
  s.kernel = Kernel::kCsrmv;
  s.variant = kernels::Variant::kIssr;
  s.width = sparse::IndexWidth::kU16;
  s.family = sparse::MatrixFamily::kUniform;
  s.density = 0.125;
  s.rows = 10;
  s.cols = 20;
  s.cores = 8;
  s.seed = 12345;
  ScenarioResult r;
  r.scenario = s;
  r.ok = true;
  r.rows = 10;
  r.cols = 20;
  r.nnz = 30;
  r.cycles = 400;
  r.fpu_util = 0.5;
  r.macs = 30;
  r.macs_per_cycle = 0.075;
  r.core_cycles = 3200;
  r.stalls[trace::Bucket::kFpCompute] = 200;
  r.stalls[trace::Bucket::kIssue] = 2800;
  r.stalls[trace::Bucket::kTcdmConflict] = 200;
  return {r};
}

TEST(Report, JsonContainsSchemaAndFields) {
  const auto json = results_to_json(fake_results());
  EXPECT_NE(json.find("\"schema\": \"issr_run.results.v6\""),
            std::string::npos);
  // v6 row-disposition columns ride on every row.
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\": \"\""), std::string::npos);
  // Engine-provenance header and per-row metrics block.
  EXPECT_NE(json.find("\"engine\": {"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": "), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\": \"csrmv\""), std::string::npos);
  EXPECT_NE(json.find("\"variant\": \"issr\""), std::string::npos);
  EXPECT_NE(json.find("\"index_bits\": 16"), std::string::npos);
  EXPECT_NE(json.find("\"density\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"cores\": 8"), std::string::npos);
  // v3 multi-cluster axis column.
  EXPECT_NE(json.find("\"clusters\": 1"), std::string::npos);
  // v4 interconnect/steal settings and scaling efficiency (1 for a
  // single-cluster row).
  EXPECT_NE(json.find("\"noc_links\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"noc_latency\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"steal\": true"), std::string::npos);
  EXPECT_NE(json.find("\"scaling_efficiency\": 1"), std::string::npos);
  // Seeds exceed 2^53 in general, so both emitters carry them as hex
  // strings that no double parser or CSV type inference can round.
  EXPECT_NE(json.find("\"seed\": \"0x0000000000003039\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"cycles\": 400"), std::string::npos);
  EXPECT_NE(json.find("\"fpu_util\": 0.5"), std::string::npos);
  // v2 stall-attribution columns.
  EXPECT_NE(json.find("\"core_cycles\": 3200"), std::string::npos);
  EXPECT_NE(json.find("\"stall_fp_compute\": 200"), std::string::npos);
  EXPECT_NE(json.find("\"stall_issue\": 2800"), std::string::npos);
  EXPECT_NE(json.find("\"stall_other\": 0"), std::string::npos);
  // Balanced braces/brackets and a trailing newline.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.back(), '\n');
}

TEST(Report, JsonEmptyResultsIsWellFormed) {
  const auto json = results_to_json({});
  EXPECT_NE(json.find("\"results\": []"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndOneRowPerResult) {
  const auto csv = results_to_csv(fake_results());
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  EXPECT_EQ(csv.find("kernel,variant,index_bits,family,"), 0u);
  EXPECT_NE(csv.find("csrmv,issr,16,uniform,0.125,10,20,8,1,1,4,true,"
                     "0x0000000000003039,30,true,ok,,400"),
            std::string::npos);
  // Header and row have equal column counts.
  const auto header = csv.substr(0, csv.find('\n'));
  const auto row = csv.substr(csv.find('\n') + 1);
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
}

TEST(Report, ScalingEfficiencyPairsRowsWithSingleClusterTwin) {
  auto rs = fake_results();
  // An 8-cluster twin of the fake single-cluster row (same kernel,
  // variant, width, family, density, cores, seed) at 2x its cycles:
  // speedup 400/200 = 2 on 8 clusters -> efficiency 0.25.
  ScenarioResult multi = rs[0];
  multi.scenario.clusters = 8;
  multi.cycles = 200;
  rs.push_back(multi);
  // A multi-cluster row whose baseline is not in the sweep: efficiency
  // is unknowable from this result set and reports 0.
  ScenarioResult orphan = multi;
  orphan.scenario.seed = 99;
  rs.push_back(orphan);
  const auto json = results_to_json(rs);
  EXPECT_NE(json.find("\"scaling_efficiency\": 1,"), std::string::npos);
  EXPECT_NE(json.find("\"scaling_efficiency\": 0.25,"), std::string::npos);
  EXPECT_NE(json.find("\"scaling_efficiency\": 0,"), std::string::npos);
  // CSV emits the same efficiency column for the same rows.
  const auto csv = results_to_csv(rs);
  EXPECT_NE(csv.find(",0.25,"), std::string::npos);
}

TEST(Report, TableHasOneRowPerResult) {
  const auto t = results_table(fake_results());
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 9u);
}

// --- Paper-shape cycle pins --------------------------------------------------
//
// Exact simulated cycles of the Fig. 4a/4b single-CC shapes and the
// Fig. 4c 8-worker cluster shape, on fixed seeds. A change here is a
// modelling change: re-pin only on purpose, and say so in CHANGES.md.

TEST(PaperShapeGolden, Fig4aSpvv) {
  Rng rng(1);
  const auto a = sparse::random_sparse_vector(rng, 32768, 16384);
  const auto b = sparse::random_dense_vector(rng, 32768);
  const auto u16 = run_spvv_cc(kernels::Variant::kIssr,
                               sparse::IndexWidth::kU16, a, b);
  const auto u32 = run_spvv_cc(kernels::Variant::kIssr,
                               sparse::IndexWidth::kU32, a, b);
  EXPECT_TRUE(u16.ok);
  EXPECT_TRUE(u32.ok);
  EXPECT_EQ(u16.sim.cycles, 20519u);
  EXPECT_EQ(u32.sim.cycles, 24618u);
}

TEST(PaperShapeGolden, Fig4bCsrmv) {
  Rng rng(2);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 384, 512, 26);
  const auto x = sparse::random_dense_vector(rng, 512);
  const struct {
    kernels::Variant variant;
    sparse::IndexWidth width;
    cycle_t cycles;
  } points[] = {
      {kernels::Variant::kBase, sparse::IndexWidth::kU32, 94479},
      {kernels::Variant::kSsr, sparse::IndexWidth::kU32, 74524},
      {kernels::Variant::kIssr, sparse::IndexWidth::kU16, 15794},
      {kernels::Variant::kIssr, sparse::IndexWidth::kU32, 17713},
  };
  for (const auto& p : points) {
    const auto r = run_csrmv_cc(p.variant, p.width, a, x);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.sim.cycles, p.cycles)
        << kernels::to_string(p.variant)
        << (p.width == sparse::IndexWidth::kU16 ? " u16" : " u32");
  }
}

TEST(PaperShapeGolden, Fig4cClusterCsrmv) {
  Rng rng(3);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 1024, 51);
  const auto x = sparse::random_dense_vector(rng, 1024);
  const auto r = run_csrmv_mc(kernels::Variant::kIssr,
                              sparse::IndexWidth::kU16, 8, a, x);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.mc.cluster.cycles * 8, 62968u);  // core-cycles
}

// --- Composable run helpers (driver/runs.hpp) --------------------------------

TEST(Runs, SpvvHelperValidates) {
  Rng rng(11);
  const auto a = sparse::random_sparse_vector(rng, 64, 16);
  const auto b = sparse::random_dense_vector(rng, 64);
  const auto r = run_spvv_cc(kernels::Variant::kIssr,
                             sparse::IndexWidth::kU16, a, b);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.sim.cycles, 0u);
}

TEST(Runs, CsrmvHelperValidates) {
  Rng rng(12);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 16, 32, 4);
  const auto x = sparse::random_dense_vector(rng, 32);
  const auto r = run_csrmv_cc(kernels::Variant::kSsr,
                              sparse::IndexWidth::kU32, a, x);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.y.size(), 16u);
}

TEST(Runs, SysTuningShapesTimingOnly) {
  Rng rng(14);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 128, 9);
  const auto x = sparse::random_dense_vector(rng, 128);
  const auto run = [&](const SysTuning& tuning) {
    return run_csrmv_sys(kernels::Variant::kIssr, sparse::IndexWidth::kU16,
                         2, 4, a, x, nullptr, true, {}, tuning);
  };
  const auto steal_on = run(SysTuning{});
  const auto steal_off = run(SysTuning{1, 4, false});
  const auto slow_noc = run(SysTuning{1, 64, true});
  EXPECT_TRUE(steal_on.ok);
  EXPECT_TRUE(steal_off.ok);
  EXPECT_TRUE(slow_noc.ok);
  EXPECT_TRUE(steal_on.sys.steal);
  EXPECT_FALSE(steal_off.sys.steal);
  // Every tuning combination is timing-only: y is bitwise identical
  // whether tiles move via the dynamic steal protocol or the static
  // shards, and whatever the link latency is.
  ASSERT_EQ(steal_on.sys.y.size(), a.rows());
  for (std::size_t i = 0; i < steal_on.sys.y.size(); ++i) {
    EXPECT_EQ(steal_on.sys.y[i], steal_off.sys.y[i]) << i;
    EXPECT_EQ(steal_on.sys.y[i], slow_noc.sys.y[i]) << i;
  }
  // ...but the timing does consult the knobs: a 64-cycle link latency
  // must cost cycles over the 4-cycle default.
  EXPECT_GT(slow_noc.sys.system.cycles, steal_on.sys.system.cycles);
}

}  // namespace
}  // namespace issr::driver
