// Metrics & observability tests: snapshot merge algebra (associative,
// commutative, gauge identity), harvest-time utilization invariants
// (every util_*/_frac/_rate gauge in [0,1]; util_fpu is bitwise the
// result's own fpu_util()), the results hard bar (result documents
// bytewise identical with host profiling and progress on or off, at any
// worker count), host-engine metrics accounting, Prometheus rendering,
// and the v7 build-provenance header.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/version.hpp"
#include "driver/hostprof.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "metrics/harvest.hpp"
#include "metrics/metrics.hpp"
#include "metrics/prometheus.hpp"

namespace issr {
namespace {

using driver::Kernel;
using driver::Scenario;
using driver::ScenarioMatrix;
using driver::SweepOutcome;
using driver::SweepSpec;

/// Small mixed matrix covering every engine: single-CC SpVV, single-CC
/// CsrMV, cluster CsrMV, and a multi-cluster system run.
std::vector<Scenario> mixed_scenarios() {
  ScenarioMatrix m;
  m.kernels = {Kernel::kSpvv, Kernel::kCsrmv};
  m.variants = {kernels::Variant::kBase, kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.densities = {0.1};
  m.cores = {1, 4};
  m.clusters = {1, 2};
  m.rows = 32;
  m.cols = 64;
  return m.expand();
}

SweepOutcome sweep(const std::vector<Scenario>& scenarios, unsigned jobs,
                   driver::HostProfiler* profiler = nullptr,
                   bool progress = false) {
  SweepSpec spec;
  spec.scenarios = scenarios;
  spec.jobs = jobs;
  spec.profiler = profiler;
  spec.progress = progress;
  return driver::run_sweep(spec);
}

// --- Snapshot merge algebra --------------------------------------------------

metrics::Snapshot snap_a() {
  metrics::Registry r;
  r.add("runs", 3);
  r.observe_max("peak", 7.0);
  r.observe_min("floor", 2.0);
  r.histogram("lat", 0.0, 100.0, 4);
  r.record("lat", 10.0);
  r.record("lat", 95.0);
  return r.snapshot();
}

metrics::Snapshot snap_b() {
  metrics::Registry r;
  r.add("runs", 5);
  r.add("extra", 1);
  r.observe_max("peak", 4.0);
  r.observe_min("floor", 9.0);
  r.histogram("lat", 0.0, 100.0, 4);
  r.record("lat", 50.0);
  return r.snapshot();
}

metrics::Snapshot snap_c() {
  metrics::Registry r;
  r.add("runs", 11);
  r.observe_max("peak", 6.0);
  // "floor" never observed here: the samples==0 gauge is the merge
  // identity, so merging it must not disturb b's minimum.
  r.gauge_min("floor");
  r.histogram("lat", 0.0, 100.0, 4);
  r.record("lat", -3.0);  // clamps into the low edge bin
  return r.snapshot();
}

void expect_same(const metrics::Snapshot& x, const metrics::Snapshot& y) {
  ASSERT_EQ(x.entries().size(), y.entries().size());
  for (std::size_t i = 0; i < x.entries().size(); ++i) {
    const auto& a = x.entries()[i];
    const auto& b = y.entries()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.buckets, b.buckets);
  }
}

TEST(MetricsMerge, AssociativeAndCommutative) {
  // ((a+b)+c) == (a+(b+c)) == ((c+b)+a): counters and histogram buckets
  // are exact integer sums, gauges max/min — order cannot matter.
  metrics::Snapshot ab = snap_a();
  ab.merge(snap_b());
  metrics::Snapshot ab_c = ab;
  ab_c.merge(snap_c());

  metrics::Snapshot bc = snap_b();
  bc.merge(snap_c());
  metrics::Snapshot a_bc = snap_a();
  a_bc.merge(bc);

  metrics::Snapshot cb = snap_c();
  cb.merge(snap_b());
  cb.merge(snap_a());

  expect_same(ab_c, a_bc);
  expect_same(ab_c, cb);

  EXPECT_EQ(ab_c.value("runs"), 19.0);
  EXPECT_EQ(ab_c.value("extra"), 1.0);
  EXPECT_EQ(ab_c.value("peak"), 7.0);
  EXPECT_EQ(ab_c.value("floor"), 2.0);
  const metrics::Entry* lat = ab_c.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 4u);
  ASSERT_EQ(lat->buckets.size(), 4u);
  EXPECT_EQ(lat->buckets[0], 2u);  // 10.0 and the clamped -3.0
  EXPECT_EQ(lat->buckets[2], 1u);  // 50.0
  EXPECT_EQ(lat->buckets[3], 1u);  // 95.0
}

TEST(MetricsMerge, EmptyGaugeIsIdentity) {
  metrics::Registry r;
  r.gauge_max("peak");  // created, never observed
  metrics::Snapshot with = snap_a();
  with.merge(r.snapshot());
  expect_same(with, snap_a());
}

TEST(MetricsSnapshot, AbsentNameReadsZero) {
  EXPECT_EQ(snap_a().value("no_such_metric"), 0.0);
}

TEST(MetricsFmt, CompactRoundTrip) {
  EXPECT_EQ(metrics::fmt_compact(0.05), "0.05");
  EXPECT_EQ(metrics::fmt_compact(0.0), "0");
  EXPECT_EQ(metrics::fmt_compact(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(std::strtod(metrics::fmt_compact(1.0 / 3.0).c_str(), nullptr),
            1.0 / 3.0);
}

// --- Harvest invariants ------------------------------------------------------

TEST(MetricsHarvest, UtilizationInvariantsHoldOnMixedSweep) {
  const auto outcome = sweep(mixed_scenarios(), 2);
  ASSERT_GE(outcome.results.size(), 6u);
  for (const auto& r : outcome.results) {
    SCOPED_TRACE(r.scenario.name());
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(metrics::utilization_in_bounds(r.metrics));
    // util_fpu is *defined* as the result's own fpu_util() — bitwise,
    // not approximately (the --perf-report/bench agreement bar).
    EXPECT_EQ(r.metrics.value("util_fpu"), r.fpu_util);
    EXPECT_GT(r.metrics.value("util_fpu"), 0.0);
    // Stall attribution still sums exactly to core-cycles.
    EXPECT_EQ(r.stalls.total(), r.core_cycles);
    // Every System row carries the TCDM series; only a System with a
    // fabric (more than one cluster) carries the interconnect's.
    const auto has = [&r](const char* name) {
      for (const auto& e : r.metrics.entries()) {
        if (e.name == name) return true;
      }
      return false;
    };
    EXPECT_EQ(has("tcdm_grants"),
              r.scenario.cores > 1 || r.scenario.clusters > 1);
    EXPECT_EQ(has("noc_beats_in"), r.scenario.clusters > 1);
  }
}

// --- Result documents unperturbed by observability ---------------------------

TEST(MetricsDeterminism, ResultsBytewiseIdenticalWithProfilingOn) {
  const auto scenarios = mixed_scenarios();
  const auto reference = sweep(scenarios, 1);
  const std::string ref_json = driver::results_to_json(reference.results);
  const std::string ref_csv = driver::results_to_csv(reference.results);

  for (const unsigned jobs : {1u, 2u, 8u}) {
    driver::HostProfiler profiler;
    const auto got = sweep(scenarios, jobs, &profiler, /*progress=*/true);
    EXPECT_EQ(driver::results_to_json(got.results), ref_json)
        << "jobs=" << jobs;
    EXPECT_EQ(driver::results_to_csv(got.results), ref_csv)
        << "jobs=" << jobs;
    EXPECT_GT(profiler.recorded(), 0u);
  }
}

TEST(MetricsHost, SweepAccountingMatchesStats) {
  const auto scenarios = mixed_scenarios();
  for (const unsigned jobs : {1u, 3u}) {
    const auto outcome = sweep(scenarios, jobs);
    const auto& host = outcome.host_metrics;
    EXPECT_EQ(host.value("host_runs"),
              static_cast<double>(outcome.stats.runs));
    EXPECT_EQ(host.value("host_workload_builds"),
              static_cast<double>(outcome.stats.cache.workload_builds));
    EXPECT_GT(host.value("host_wall_seconds"), 0.0);
    EXPECT_GT(host.value("host_arena_reserved_bytes"), 0.0);
    const metrics::Entry* hist = host.find("host_run_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, outcome.stats.runs);
    ASSERT_EQ(outcome.run_seconds.size(), scenarios.size());
    for (const double s : outcome.run_seconds) EXPECT_GT(s, 0.0);
  }
}

// --- Host profiler -----------------------------------------------------------

TEST(HostProfiler, WritesChromeTrace) {
  namespace fs = std::filesystem;
  driver::HostProfiler prof;
  const auto track = prof.add_track("sweep", "worker 0");
  prof.begin(track, "csrmv/base");
  prof.end(track, "csrmv/base");
  EXPECT_EQ(prof.recorded(), 2u);

  const fs::path path = fs::temp_directory_path() / "issr_hostprof_test.json";
  fs::remove(path);
  ASSERT_TRUE(prof.write(path.string()));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("csrmv/base"), std::string::npos);
  fs::remove(path);
}

// --- Prometheus rendering ----------------------------------------------------

TEST(Prometheus, RendersTypedLabeledSeries) {
  metrics::Registry r;
  r.add("runs", 2);
  r.observe_max("util fpu", 0.75);  // space must sanitize to '_'
  r.histogram("lat_us", 0.0, 10.0, 2);
  r.record("lat_us", 1.0);
  r.record("lat_us", 9.0);
  const auto snap = r.snapshot();

  const std::string text = metrics::to_prometheus(
      {{{{"scenario", "csrmv/issr w\"16\""}}, &snap}, {{}, &snap}});

  EXPECT_NE(text.find("# TYPE issr_runs counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE issr_util_fpu gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE issr_lat_us histogram"), std::string::npos);
  // Label values escape quotes; the unlabeled host series renders bare.
  EXPECT_NE(text.find("issr_runs{scenario=\"csrmv/issr w\\\"16\\\"\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("\nissr_runs 2\n"), std::string::npos);
  // Histogram triple with cumulative buckets and the +Inf catch-all.
  EXPECT_NE(text.find("issr_lat_us_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("issr_lat_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("issr_lat_us_sum 10"), std::string::npos);
  EXPECT_NE(text.find("issr_lat_us_count 2"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

// --- Results schema v7 -------------------------------------------------------

TEST(ResultsV7, CarriesEngineProvenanceAndMetrics) {
  auto scenarios = mixed_scenarios();
  scenarios.resize(2);
  const auto outcome = sweep(scenarios, 1);
  const std::string json = driver::results_to_json(outcome.results);
  EXPECT_NE(json.find("\"schema\": \"issr_run.results.v7\""),
            std::string::npos);
  EXPECT_NE(json.find("\"engine\": {\"version\": \"" +
                      engine_version() + "\", \"build_type\": \"" +
                      engine_build_type() + "\", \"lto\": "),
            std::string::npos);
  EXPECT_EQ(json.find("fast_forward_default"), std::string::npos);
  EXPECT_FALSE(engine_version().empty());
  EXPECT_STRNE(engine_build_type(), "");
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"util_fpu\""), std::string::npos);

  const std::string csv = driver::results_to_csv(outcome.results);
  const std::string header = csv.substr(0, csv.find('\n'));
  EXPECT_NE(header.find("util_fpu_fmadd"), std::string::npos);
  EXPECT_NE(header.find("barrier_wait_frac"), std::string::npos);
}

TEST(ResultsV7, PaperReferenceAnchors) {
  EXPECT_EQ(driver::paper_util_reference(kernels::Variant::kBase,
                                         sparse::IndexWidth::kU32),
            0.11);
  EXPECT_EQ(driver::paper_util_reference(kernels::Variant::kSsr,
                                         sparse::IndexWidth::kU32),
            0.14);
  EXPECT_EQ(driver::paper_util_reference(kernels::Variant::kIssr,
                                         sparse::IndexWidth::kU16),
            0.80);
  EXPECT_EQ(driver::paper_util_reference(kernels::Variant::kIssr,
                                         sparse::IndexWidth::kU32),
            0.67);
}

}  // namespace
}  // namespace issr
