// Experiment-driver tests: scenario-matrix expansion, deterministic seed
// derivation, JSON/CSV emission, serial-vs-parallel sweep equality, and
// the golden pins of the paper shapes and of one eight-worker cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/runs.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "sim/fault.hpp"
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

std::vector<ScenarioResult> sweep_results(
    const std::vector<Scenario>& scenarios, unsigned jobs) {
  SweepSpec spec;
  spec.scenarios = scenarios;
  spec.jobs = jobs;
  return run_sweep(spec).results;
}

TEST(RunSweep, ParallelMatchesSerialBitwise) {
  auto m = tiny_matrix();
  m.variants = {kernels::Variant::kBase, kernels::Variant::kSsr,
                kernels::Variant::kIssr};
  m.densities = {0.05, 0.2};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 6u);

  const auto serial = sweep_results(scenarios, 1);
  const auto parallel = sweep_results(scenarios, 4);
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

TEST(RunSweep, MoreJobsThanScenarios) {
  ScenarioMatrix m = tiny_matrix();
  m.variants = {kernels::Variant::kIssr};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  const auto results = sweep_results(scenarios, 16);
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
  EXPECT_NE(json.find("\"schema\": \"issr_run.results.v7\""),
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
  const auto r =
      run_csrmv_sys(kernels::Variant::kIssr, sparse::IndexWidth::kU16, 1, 8,
                    a, x, nullptr, true, {}, SysTuning{.fabric = false});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.sys.system.cycles * 8, 62968u);  // core-cycles
}

// --- Single-cluster golden table ---------------------------------------------

/// What one 8-worker single-cluster CsrMV run leaves observable.
struct OneClusterRun {
  cluster::ClusterResult cluster;
  sparse::DenseVector y;
  sim::Fault fault;
  bool ok = false;
};

/// The System of one, with no fabric.
OneClusterRun run_one_cluster(kernels::Variant v, const sparse::CsrMatrix& a,
                              const sparse::DenseVector& x,
                              const RunAids& aids = {}) {
  auto r = run_csrmv_sys(v, sparse::IndexWidth::kU16, 1, 8, a, x, nullptr,
                         true, aids, SysTuning{.fabric = false});
  return {r.sys.system.clusters[0], r.sys.y, r.sys.system.fault, r.ok};
}

/// 256 x 512 at `rn` nonzeros per row, and its dense vector.
std::pair<sparse::CsrMatrix, sparse::DenseVector> golden_input(
    std::uint32_t rn) {
  Rng rng(3200 + rn);
  auto a = sparse::random_fixed_row_nnz_matrix(rng, 256, 512, rn);
  auto x = sparse::random_dense_vector(rng, 512);
  return {std::move(a), std::move(x)};
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Cycles, TCDM grants/conflicts, DMA busy cycles, main-memory bytes
/// read/written, an FNV-1a hash of y and every worker's stall buckets.
std::string cluster_record(const OneClusterRun& r) {
  const auto& c = r.cluster;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(r.y.data());
  for (std::size_t i = 0; i < r.y.size() * sizeof(double); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  std::string s = "cycles=" + std::to_string(c.cycles) +
                  " tcdm=" + std::to_string(c.tcdm.grants) + "/" +
                  std::to_string(c.tcdm.conflicts) +
                  " dma_busy=" + std::to_string(c.dma.busy_cycles) +
                  " mm=" + std::to_string(c.main_mem_read) + "/" +
                  std::to_string(c.main_mem_written) + " y=" + hex64(h) +
                  " stalls=";
  for (const auto& w : c.stalls) {
    for (const std::uint64_t n : w.counts) s += std::to_string(n) + ",";
    s += ";";
  }
  return s;
}

/// The fault_detail payload: code, message, cycle, horizon, barrier
/// string, every hart and the stall snapshot.
std::string fault_text(const sim::Fault& f) {
  std::string s = std::string(sim::to_string(f.code)) + ": " + f.message +
                  " cycle=" + std::to_string(f.cycle) +
                  " next=" + std::to_string(f.last_next_event) + " [" +
                  f.barrier + "] harts=";
  for (const auto& h : f.harts) {
    s += std::to_string(h.cluster) + "." + std::to_string(h.hart) + "@" +
         hex64(h.pc) + (h.halted ? "h," : ",");
  }
  s += " stalls=";
  for (const std::uint64_t n : f.stalls.counts) s += std::to_string(n) + ",";
  return s;
}

TEST(ClusterGolden, OneClusterMatchesPinnedTable) {
  // BASE and ISSR-u16 on 8 workers at 256 x 512, per nnz/row.
  const struct {
    kernels::Variant variant;
    std::uint32_t rn;
    const char* record;
  } rows[] = {
      {kernels::Variant::kBase, 1,
       "cycles=866 tcdm=1402/1023 dma_busy=153 mm=7684/2048 "
       "y=4833095c090ffaae stalls=32,769,0,0,0,31,0,34,0,;"
       "32,769,0,0,0,32,0,33,0,;32,761,0,0,0,35,0,38,0,;"
       "32,761,0,0,0,28,0,45,0,;32,761,0,0,0,36,0,37,0,;"
       "32,761,0,0,0,30,0,43,0,;32,761,0,0,0,37,0,36,0,;"
       "32,763,0,0,0,36,0,35,0,;"},
      {kernels::Variant::kBase, 8,
       "cycles=3226 tcdm=6988/3609 dma_busy=433 mm=25604/2048 "
       "y=4b9c7c4f53fdc54c stalls=256,2769,0,0,0,166,0,35,0,;"
       "256,2769,0,0,0,161,0,40,0,;256,2769,0,0,0,167,0,34,0,;"
       "256,2769,0,0,0,168,0,33,0,;256,2761,0,0,0,172,0,37,0,;"
       "256,2761,0,0,0,158,0,51,0,;256,2761,0,0,0,173,0,36,0,;"
       "256,2761,0,0,0,167,0,42,0,;"},
      {kernels::Variant::kBase, 32,
       "cycles=11238 tcdm=26140/11770 dma_busy=1393 mm=87044/2048 "
       "y=362fc89c4ed43092 stalls=1024,9633,0,0,0,538,0,43,0,;"
       "1024,9633,0,0,0,539,0,42,0,;1024,9633,0,0,0,548,0,33,0,;"
       "1024,9633,0,0,0,540,0,41,0,;1024,9625,0,0,0,534,0,55,0,;"
       "1024,9625,0,0,0,524,0,65,0,;1024,9625,0,0,0,535,0,54,0,;"
       "1024,9625,0,0,0,545,0,44,0,;"},
      {kernels::Variant::kBase, 128,
       "cycles=43058 tcdm=100211/19948 dma_busy=5238 mm=332816/2048 "
       "y=f1272dbae12aa299 stalls=4480,37663,0,0,0,909,0,6,0,;"
       "4096,34555,0,0,0,870,0,3537,0,;3968,33519,0,0,0,857,0,4714,0,;"
       "4096,34547,0,0,0,870,0,3545,0,;4096,34547,0,0,0,845,0,3570,0,;"
       "3968,33511,0,0,0,877,0,4702,0,;4096,34547,0,0,0,873,0,3542,0,;"
       "3968,33511,0,0,0,788,0,4791,0,;"},
      {kernels::Variant::kIssr, 1,
       "cycles=593 tcdm=1210/870 dma_busy=153 mm=7684/2048 "
       "y=4833095c090ffaae stalls=32,501,0,0,0,26,0,34,0,;"
       "32,501,0,0,0,29,0,31,0,;32,493,0,0,0,25,0,43,0,;"
       "32,493,0,0,0,26,0,42,0,;32,493,0,0,0,27,0,41,0,;"
       "32,493,0,0,0,28,0,40,0,;32,493,0,0,0,33,0,35,0,;"
       "32,493,0,0,0,30,0,38,0,;"},
      {kernels::Variant::kIssr, 8,
       "cycles=1365 tcdm=5452/4344 dma_busy=433 mm=25604/2048 "
       "y=bdb5cf9bc3c1d16c stalls=352,871,0,0,0,97,0,45,0,;"
       "352,872,0,0,0,102,0,39,0,;352,871,0,0,0,104,0,38,0,;"
       "352,872,0,0,0,104,0,37,0,;352,864,0,0,0,100,0,49,0,;"
       "352,865,0,0,0,107,0,41,0,;352,864,0,0,0,102,0,47,0,;"
       "352,863,0,0,0,110,0,40,0,;"},
      {kernels::Variant::kIssr, 32,
       "cycles=3246 tcdm=19996/12752 dma_busy=1393 mm=87044/2048 "
       "y=41df21aa7142e513 stalls=1120,1343,0,0,0,394,138,107,144,;"
       "1120,1361,0,0,0,422,159,54,130,;1120,1379,0,0,0,428,155,39,125,;"
       "1120,1369,0,0,0,421,146,57,133,;1120,1370,0,0,0,431,148,40,137,;"
       "1120,1355,0,0,0,416,157,67,131,;1120,1357,0,0,0,426,150,56,137,;"
       "1120,1377,0,0,0,411,142,52,144,;"},
      {kernels::Variant::kIssr, 128,
       "cycles=9677 tcdm=75635/37047 dma_busy=5238 mm=332816/2048 "
       "y=08db038f85cad37f stalls=4585,1883,0,0,0,1526,1519,36,128,;"
       "4192,1841,0,0,0,1528,1349,660,107,;"
       "4061,1844,0,0,0,1538,1391,735,108,;"
       "4192,1854,0,0,0,1496,1481,543,111,;"
       "4192,1831,0,0,0,1500,1409,639,106,;"
       "4061,1830,0,0,0,1530,1340,809,107,;"
       "4192,1841,0,0,0,1525,1386,624,109,;"
       "4061,1830,0,0,0,1541,1389,743,113,;"},
  };
  for (const auto& row : rows) {
    const auto [a, x] = golden_input(row.rn);
    const auto r = run_one_cluster(row.variant, a, x);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.fault);
    EXPECT_EQ(cluster_record(r), row.record)
        << kernels::to_string(row.variant) << " " << row.rn << " nnz/row";
  }
}

TEST(ClusterGolden, OneClusterDmaStallFaultDetail) {
  const auto [a, x] = golden_input(8);
  RunAids aids;
  aids.max_cycles = 20'000;
  aids.inject.stall_dma = true;
  const auto r = run_one_cluster(kernels::Variant::kIssr, a, x, aids);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.cluster.cycles, 20'000u);
  EXPECT_EQ(fault_text(r.fault),
            "cycle_limit: cycle budget exhausted before the cluster was "
            "done cycle=20000 next=20000 [hw_barrier: 0/8 arrived (0 at "
            "CSR), gen 0; dma: busy, controller active] "
            "harts=0.0@0000000040000020,0.1@0000000040000020,"
            "0.2@0000000040000020,0.3@0000000040000020,"
            "0.4@0000000040000020,0.5@0000000040000020,"
            "0.6@0000000040000020,0.7@000000004000001c, stalls=0,159999,"
            "0,0,0,1,0,0,0,");
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
