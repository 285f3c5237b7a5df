// perfbench — the repository benchmark program (perfbench/README.md).
//
//   perfbench --workload cc_paper|cluster_fig4c|system_x8 [--seed N]
//             [--seconds S] [--trace 0|1] [--trace-out FILE] [--small]
//
// --trace 0 measures the end-to-end metrics (mcps, setup_s, peak_rss_mb,
// paper_err); --trace 1 is the separate traced run that records spans
// around the benchmark's calls into each layer and reports the per-layer
// metrics. Both print the machine record and the check values, then one
// JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/version.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "trace/stall.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Every workload, in BENCHMARK.json order; the first is the one whose
/// set-up builds programs outside the simulator entry points.
constexpr const char* kWorkloads[] = {"cc_paper", "cluster_fig4c",
                                      "system_x8"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  void count(const Pass& p) {
    attempted += p.runs;
    failed += p.failures;
  }
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] [--small]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--small") {
      o.small = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + a).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Check values: every pass must reproduce the reference pass exactly.
void check(Report& rep, const Pass& ref, const Pass& p) {
  rep.count(p);
  if (p.core_cycles != ref.core_cycles || p.fingerprint != ref.fingerprint) {
    std::printf("check-value miss: core_cycles %llu vs %llu, fingerprint "
                "%016llx vs %016llx\n",
                static_cast<unsigned long long>(p.core_cycles),
                static_cast<unsigned long long>(ref.core_cycles),
                static_cast<unsigned long long>(p.fingerprint),
                static_cast<unsigned long long>(ref.fingerprint));
    ++rep.failed;
  }
}

/// Median cold set-up time over at least `min_reps` set-ups, repeated
/// until `budget_s` has passed.
double setup_seconds(const Workload& w, Spans& spans, std::size_t min_reps,
                     double budget_s) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < min_reps || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    Scoped span(spans, "bench.setup");
    w.setup(spans);
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

void run_untraced(const Workload& w, const Options& o, Report& rep,
                  Pass& ref) {
  Spans off(false);
  ref = w.pass(off);  // warm-up pass; its check values are the reference
  rep.count(ref);
  // High-water memory of one whole pass, read before later passes can
  // add allocator fragmentation that depends on how many passes fit.
  const double rss_mib = peak_rss_mib();
  const double setup_s = setup_seconds(w, off, 5, o.seconds / 10);
  std::vector<double> mcps;
  const auto t0 = Clock::now();
  while (mcps.size() < 3 || seconds_since(t0) < o.seconds) {
    const Pass p = w.pass(off);
    check(rep, ref, p);
    mcps.push_back(p.mcps());
  }
  std::printf("passes: %zu timed, MCPS min %.4f median %.4f max %.4f\n",
              mcps.size(), *std::min_element(mcps.begin(), mcps.end()),
              median(mcps), *std::max_element(mcps.begin(), mcps.end()));
  rep.add("mcps", median(mcps), "Mcycles/s");
  rep.add("setup_s", setup_s, "s");
  rep.add("peak_rss_mb", rss_mib, "MiB");
  Pass anchor_runs;
  rep.add("paper_err", w.paper_err(ref, anchor_runs), "ratio");
  rep.count(anchor_runs);
}

/// The traced run. Besides the traced workload's own sweep passes (driver
/// telemetry, tracing overhead, simulated metrics), it climbs the whole
/// layer ladder on inputs from the same seed — cc_paper's set-up, every
/// workload's layer pass, the component micro-loops — so each per-layer
/// metric is measured on the workload that loads its layer, whichever
/// workload is traced.
void run_traced(const Workload& w, const Options& o, Report& rep, Pass& ref,
                Spans& spans) {
  Spans off(false);
  ref = w.pass(off);
  rep.count(ref);

  // Interleave untraced and traced passes, swapping which runs first in
  // each pair: the MCPS ratio is the cost of tracing.
  std::vector<double> plain, traced;
  const auto t0 = Clock::now();
  while (plain.size() < 2 || seconds_since(t0) < o.seconds / 2) {
    for (const bool on : {plain.size() % 2 == 0, plain.size() % 2 != 0}) {
      const int id = on ? spans.open("bench.pass") : -1;
      const Pass p = w.pass(on ? spans : off);
      spans.close(id, p.core_cycles);
      check(rep, ref, p);
      (on ? traced : plain).push_back(p.mcps());
    }
  }

  constexpr int kSetupReps = 3;
  Values values;
  for (const char* name : kWorkloads) {
    const auto rung = make_workload(name, o.seed, o.small);
    if (name == kWorkloads[0]) setup_seconds(*rung, spans, kSetupReps, 0.0);
    Scoped span(spans, "bench.layers");
    const Pass lp = rung->layers(spans, values);
    span.add_work(lp.core_cycles);
    rep.count(lp);
    if (o.workload == name && lp.core_cycles != ref.core_cycles) {
      std::printf("check-value miss: layer pass simulated %llu core-cycles, "
                  "sweep %llu\n",
                  static_cast<unsigned long long>(lp.core_cycles),
                  static_cast<unsigned long long>(ref.core_cycles));
      ++rep.failed;
    }
  }
  {
    Scoped span(spans, "bench.probes");
    const std::uint64_t n = o.small ? 20000 : 400000;
    if (probe_tcdm(spans, n) == 0 || probe_lane(spans, n) == 0 ||
        probe_fpss(spans, n) == 0) {
      std::printf("probe did no work\n");
      ++rep.failed;
    }
  }

  // Host time, from the spans.
  const auto per_setup = [&](const char* name) {
    return spans.total_seconds(name) / kSetupReps;
  };
  rep.add("sparse.generate_s", per_setup("sparse.generate"), "s");
  rep.add("kernels.build_s", per_setup("kernels.build"), "s");
  rep.add("core.compile_s", per_setup("core.compile"), "s");
  rep.add("driver.workload_hit_rate",
          ratio(ref.workload_hits, ref.workload_lookups), "ratio");
  rep.add("driver.program_hit_rate",
          ratio(ref.program_hits, ref.program_lookups), "ratio");
  rep.add("driver.compiled_hit_rate",
          ratio(ref.compiled_hits, ref.compiled_lookups), "ratio");
  rep.add("driver.idle_frac", ref.idle_frac, "ratio");
  rep.add("driver.steals", static_cast<double>(ref.steals), "count");
  rep.add("core.ns_per_cycle.base", spans.ns_per_work("core.run.base"),
          "ns/cycle");
  rep.add("core.ns_per_cycle.ssr", spans.ns_per_work("core.run.ssr"),
          "ns/cycle");
  rep.add("core.ns_per_cycle.issr", spans.ns_per_work("core.run.issr"),
          "ns/cycle");
  rep.add("core.ff_skip_frac", values["core.ff_skip_frac"], "ratio");
  rep.add("cluster.ns_per_core_cycle.base",
          spans.ns_per_work("cluster.run.base"), "ns/cycle");
  rep.add("cluster.ns_per_core_cycle.issr",
          spans.ns_per_work("cluster.run.issr"), "ns/cycle");
  rep.add("cluster.ff_skip_frac", values["cluster.ff_skip_frac"], "ratio");
  rep.add("system.ns_per_core_cycle.csrmv",
          spans.ns_per_work("system.run_csrmv"), "ns/cycle");
  rep.add("system.ns_per_core_cycle.csrmm",
          spans.ns_per_work("system.run_csrmm"), "ns/cycle");
  rep.add("system.par_speedup", values["system.par_speedup"], "x");
  rep.add("system.lockstep_frac", values["system.lockstep_frac"], "ratio");
  rep.add("system.rounds", values["system.rounds"], "count");
  rep.add("system.barrier_wait_us", values["system.barrier_wait_us"], "us");
  rep.add("mem.tcdm_tick_ns", spans.ns_per_work("mem.tcdm_tick"), "ns/cycle");
  rep.add("ssr.lane_tick_ns", spans.ns_per_work("ssr.lane_tick"), "ns/cycle");
  rep.add("core.fpss_tick_ns", spans.ns_per_work("core.fpss_tick"),
          "ns/cycle");
  rep.add("bench.trace_overhead_frac",
          1.0 - ratio(median(traced), median(plain)), "ratio");

  // Simulated, weighted by core-cycles over the reference pass.
  struct Gauge {
    const char* metric;
    const char* series;  ///< metrics::harvest name
    double weighted = 0.0;
  };
  Gauge gauges[] = {{"core.util_fpu", "util_fpu"},
                    {"ssr.util_issr_lane", "util_issr_lane"},
                    {"mem.tcdm_conflict_rate", "tcdm_conflict_rate"},
                    {"mem.util_dma", "util_dma"},
                    {"mem.noc_denied_frac", "noc_denied_frac"}};
  double cc = 0.0, steal_claims = 0.0;
  issr::trace::StallBuckets stalls;
  for (const auto& s : ref.samples) {
    const double c = static_cast<double>(s.core_cycles);
    cc += c;
    stalls += s.stalls;
    for (Gauge& g : gauges) g.weighted += c * s.metrics.value(g.series);
    steal_claims += s.metrics.value("steal_claims");
  }
  for (const Gauge& g : gauges) rep.add(g.metric, ratio(g.weighted, cc), "ratio");
  rep.add("system.steal_claims", steal_claims, "count");
  for (unsigned b = 0; b < issr::trace::kNumBuckets; ++b) {
    const auto bucket = static_cast<issr::trace::Bucket>(b);
    rep.add(std::string("stall.") + issr::trace::to_string(bucket) + "_frac",
            ratio(static_cast<double>(stalls[bucket]), cc), "ratio");
  }
  rep.add("sim.core_cycles", static_cast<double>(ref.core_cycles), "count");

  if (const std::size_t bad = spans.violations()) {
    std::printf("span check: %zu violations\n", bad);
    rep.failed += bad;
  }
  if (!o.trace_out.empty()) {
    if (spans.write_chrome(o.trace_out)) {
      std::printf("spans: %zu written to %s\n", spans.all().size(),
                  o.trace_out.c_str());
    } else {
      std::printf("spans: failed to write %s\n", o.trace_out.c_str());
      ++rep.failed;
    }
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const auto workload = make_workload(o.workload, o.seed, o.small);
  if (!workload) usage(("unknown workload " + o.workload).c_str());

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("machine: {\"nproc\": %u, \"build_type\": \"%s\", \"lto\": %s, "
              "\"compiler\": \"%s\", \"git\": \"%s\", \"workload\": \"%s\", "
              "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"small\": %d}\n",
              nproc, issr::engine_build_type(),
              issr::engine_build_lto() ? "true" : "false", PERFBENCH_COMPILER,
              issr::bench::git_describe().c_str(), o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.small ? 1 : 0);

  Report rep;
  Pass ref;
  Spans spans(o.trace);
  if (o.trace) {
    run_traced(*workload, o, rep, ref, spans);
  } else {
    run_untraced(*workload, o, rep, ref);
  }
  for (const Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) ++rep.failed;
  }

  std::printf("check: sim.core_cycles=%llu fingerprint=%016llx\n",
              static_cast<unsigned long long>(ref.core_cycles),
              static_cast<unsigned long long>(ref.fingerprint));
  std::printf("%-34s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : rep.metrics) {
    std::printf("%-34s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-34s %18.6g  %s   (%llu failed / %llu attempted)\n",
              "fail_frac",
              ratio(static_cast<double>(rep.failed),
                    static_cast<double>(rep.attempted)),
              "ratio", static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));

  std::string out = "{\"correct\": ";
  out += rep.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
