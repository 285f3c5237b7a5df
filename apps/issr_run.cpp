// issr_run — parallel experiment driver for the ISSR simulator.
//
// Expands a scenario matrix (kernel × variant × index width × matrix
// family × density × core count × cluster count), fans the simulations
// across a worker pool, and writes machine-readable JSON + CSV results
// with exact per-cycle stall attribution. Results are a pure function of
// the scenario matrix: any --jobs value — traced or untraced — produces
// bytewise identical output files. The complete flag reference lives in
// docs/CLI.md (CTest-checked against this binary's --help output).
//
//   $ issr_run --kernel csrmv --densities 0.01,0.1 --cores 1,8 --jobs 4
//   $ issr_run --kernel csrmv --cores 8 --clusters 1,4 --stall-report
//
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/engine.hpp"
#include "driver/hostprof.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "metrics/prometheus.hpp"
#include "sim/fault.hpp"

using namespace issr;

namespace {

constexpr const char* kUsage = R"(issr_run — parallel ISSR experiment driver

Usage: issr_run [options]

Scenario matrix axes (comma-separated lists):
  --kernels LIST     kernels to sweep: spvv, csrmv        [csrmv]
  --kernel NAME      shorthand for a single-kernel sweep
  --variants LIST    base, ssr, issr                      [base,ssr,issr]
  --widths LIST      index widths: 16, 32                 [16,32]
  --families LIST    uniform, banded, powerlaw, torus     [uniform]
  --densities LIST   nonzero fraction per row             [0.05]
  --cores LIST       1 = single CC, >1 = cluster workers  [1]
  --clusters LIST    1 = single cluster; >1 = hierarchical
                     multi-cluster system (N clusters of --cores
                     workers each around a shared bandwidth-limited
                     main memory)                         [1]

Multi-cluster system settings (timing-only; stamped on every scenario,
only clusters > 1 runs consult them):
  --noc-links N      per-cluster interconnect link budget in
                     beats/cycle, 0 = unlimited           [1]
  --noc-latency N    one-way interconnect link latency    [4]
  --sys-steal MODE   dynamic inter-cluster work stealing over a
                     fine-grained global tile plan: on, off [on]
                     (simulated y is bitwise identical either way;
                     only cycle counts move)
  --sys-threads N    host threads per multi-cluster run: the parallel
                     System engine gives each cluster its own worker
                     thread, up to N; 1 = serial engine; 0 = auto
                     (min(clusters, hardware threads / --jobs), a
                     shared budget so jobs x threads never
                     oversubscribes). Simulated results, result
                     files, and traces are bitwise identical for
                     every value; only wall-clock moves        [1]

Workload shape:
  --rows N           matrix rows (csrmv; ignored by spvv) [192]
  --cols N           matrix cols / spvv vector length     [256]
  --seed N           base seed for workload generation    [42]

Execution and output:
  --jobs N           worker threads                       [1]
  --reps N           times each scenario is simulated     [1]
                     (throughput/determinism: reps must reproduce their
                     scenario's results exactly; reports stay one row per
                     scenario and are bytewise rep-invariant)
  --no-asset-cache   rebuild every workload and kernel program per run
                     instead of sharing them across the sweep (bisection
                     aid; result files are bytewise identical either way)
  --out PREFIX       write PREFIX.json and PREFIX.csv     [issr_run_results]
  --trace DIR        write DIR/<scenario>.trace.json per scenario
                     (Chrome trace-event format; open in chrome://tracing
                     or https://ui.perfetto.dev)
  --trace-events N   retained-event window per trace      [1048576]
                     (32 B/event per running scenario; max 67108864)
  --stall-report     print per-scenario stall attribution (fractions of
                     core-cycles; buckets sum to 1 exactly)
  --perf-report      print the per-scenario bottleneck table: FPU
                     utilization next to the paper's Fig. 4a reference,
                     the dominant stall bucket with its cycle fraction,
                     and the NoC-link/TCDM pressure gauges
  --metrics FILE     write the sweep's utilization counters as one
                     Prometheus text-exposition document (a labeled
                     series per scenario plus the host engine's series);
                     result files are bytewise unaffected
  --profile-host FILE
                     write a Chrome trace of the host sweep engine
                     itself (per-worker run slices, steal markers,
                     dispatch/run/collect phases, wall-clock microsecond
                     timestamps); result files are bytewise unaffected
  --progress         stderr-only heartbeat while the sweep runs
                     (done/total runs, percent by estimated cost,
                     aggregate MCPS, ETA); stdout and result files are
                     bytewise unaffected
  --no-fast-forward  tick every cycle instead of skipping provably idle
                     stretches (results are identical either way; use to
                     bisect a suspected engine discrepancy)
  --list-scenarios   print the expanded scenario matrix (name, shape,
                     seed, derived cost estimate) without simulating
                     (aliases: --list, --dry-run)
  --help             this text

Robustness (fault-isolated sweeps; docs/ROBUSTNESS.md):
  --max-cycles N     per-run simulated-cycle budget; a run that
                     exhausts it ends as a cycle_limit fault row
                     instead of simulating forever  [engine default]
  --inject SPEC      deterministic fault injection: comma-separated
                     KIND[@TARGET] entries, each applied to scenarios
                     whose name contains TARGET (every scenario when
                     omitted). KIND: corrupt, barrier-drop, dma-stall,
                     throw, flaky, fault. Injected sweeps are still
                     bytewise identical for any --jobs
  --retries N        re-run a scenario whose worker threw a host
                     exception, same seed, up to N times; simulated
                     faults are deterministic and never retried  [0]
  --fail-fast        stop dispatching new runs at the first faulted
                     row; rows that never ran report as skipped
  --keep-going       isolate each fault to its own result row and
                     finish the sweep (default; the only mode whose
                     output is independent of --jobs)

Combinations with no implemented kernel (SpVV with cores > 1 or
clusters > 1) are skipped during expansion. Every record carries
stall-attribution columns whose buckets sum exactly to
cycles x cores x clusters. Exit status: 0 all scenarios completed and
validated; 1 a completed scenario mismatched the golden host reference
(or a trace file could not be written); 2 the sweep finished with
faulted rows isolated (--keep-going); 3 the sweep stopped early on a
fault (--fail-fast).
)";

/// Up-front writability probe for one output file path: the parent
/// directory must exist and be writable, and a file already at the path
/// must itself be writable — so a long sweep cannot run to completion
/// and then lose its results to a typoed --out/--metrics/--profile-host.
/// Probes only (access(2)); never creates or truncates anything.
bool writable_file_path(const std::string& path, std::string& why) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  const fs::path parent =
      p.has_parent_path() ? p.parent_path() : fs::path(".");
  if (!fs::is_directory(parent, ec)) {
    why = "directory " + parent.string() + " does not exist";
    return false;
  }
  if (fs::is_directory(p, ec)) {
    why = "path is a directory";
    return false;
  }
  const fs::path probe = fs::exists(p, ec) ? p : parent;
  if (::access(probe.c_str(), W_OK) != 0) {
    why = "no write permission for " + probe.string();
    return false;
  }
  return true;
}

/// Parse each comma-separated element of `list` with `parse` into `out`.
/// Returns false (leaving the error report to FlagParser, which names the
/// flag exactly as the user typed it) on a bad element or an empty list.
template <typename T, typename Parse>
bool parse_axis(const std::string& list, std::vector<T>& out, Parse parse) {
  out.clear();
  for (const auto& item : cli::split_list(list)) {
    T value;
    if (!parse(item, value)) return false;
    out.push_back(value);
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  driver::ScenarioMatrix matrix;
  driver::SweepSpec spec;
  unsigned jobs = 1;
  unsigned reps = 1;
  bool list_only = false;
  bool stall_report = false;
  bool perf_report = false;
  bool progress = false;
  bool asset_cache = true;
  std::string out_prefix = "issr_run_results";
  std::string metrics_path;
  std::string profile_host_path;
  // Lives in main so it outlives the sweep (RunOptions::inject borrows).
  sim::FaultPlan inject_plan;

  cli::FlagParser parser("issr_run", kUsage);
  core::register_engine_cli(parser);
  parser.add_switch("--list-scenarios", [&] { list_only = true; });
  parser.add_alias("--list", "--list-scenarios");
  parser.add_alias("--dry-run", "--list-scenarios");
  parser.add_switch("--no-asset-cache", [&] { asset_cache = false; });
  parser.add_switch("--fail-fast", [&] { spec.fail_fast = true; });
  parser.add_switch("--keep-going", [&] { spec.fail_fast = false; });
  parser.add_switch("--stall-report", [&] { stall_report = true; });
  parser.add_switch("--perf-report", [&] { perf_report = true; });
  parser.add_switch("--progress", [&] { progress = true; });
  parser.add_value("--metrics", [&](const std::string& v) {
    metrics_path = v;
    return !v.empty();
  });
  parser.add_value("--profile-host", [&](const std::string& v) {
    profile_host_path = v;
    return !v.empty();
  });
  parser.add_value("--kernels", [&](const std::string& v) {
    return parse_axis(v, matrix.kernels,
                      [](const std::string& s, driver::Kernel& k) {
                        return driver::parse_kernel(s, k);
                      });
  });
  parser.add_alias("--kernel", "--kernels");
  parser.add_value("--variants", [&](const std::string& v) {
    return parse_axis(v, matrix.variants,
                      [](const std::string& s, kernels::Variant& k) {
                        return driver::parse_variant(s, k);
                      });
  });
  parser.add_value("--widths", [&](const std::string& v) {
    return parse_axis(v, matrix.widths,
                      [](const std::string& s, sparse::IndexWidth& w) {
                        return driver::parse_width(s, w);
                      });
  });
  parser.add_value("--families", [&](const std::string& v) {
    return parse_axis(v, matrix.families,
                      [](const std::string& s, sparse::MatrixFamily& f) {
                        return driver::parse_family(s, f);
                      });
  });
  parser.add_value("--densities", [&](const std::string& v) {
    return parse_axis(v, matrix.densities,
                      [](const std::string& s, double& d) {
                        return cli::parse_double(s, d) && d > 0.0 && d <= 1.0;
                      });
  });
  parser.add_value("--cores", [&](const std::string& v) {
    return parse_axis(v, matrix.cores,
                      [](const std::string& s, unsigned& c) {
                        std::uint64_t n = 0;
                        if (!cli::parse_u64(s, n, 64) || n == 0) return false;
                        c = static_cast<unsigned>(n);
                        return true;
                      });
  });
  parser.add_value("--clusters", [&](const std::string& v) {
    return parse_axis(v, matrix.clusters,
                      [](const std::string& s, unsigned& c) {
                        std::uint64_t n = 0;
                        if (!cli::parse_u64(s, n, 64) || n == 0) return false;
                        c = static_cast<unsigned>(n);
                        return true;
                      });
  });
  parser.add_value("--noc-links", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1024)) return false;  // 0 = unlimited
    matrix.noc_links = static_cast<unsigned>(n);
    return true;
  });
  parser.add_value("--noc-latency", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1u << 20)) return false;
    matrix.noc_latency = static_cast<unsigned>(n);
    return true;
  });
  parser.add_value("--sys-steal", [&](const std::string& v) {
    if (v == "on") {
      matrix.steal = true;
    } else if (v == "off") {
      matrix.steal = false;
    } else {
      return false;
    }
    return true;
  });
  parser.add_value("--sys-threads", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1024)) return false;  // 0 = auto
    spec.options.sys_threads = static_cast<unsigned>(n);
    return true;
  });
  parser.add_value("--rows", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1u << 20)) return false;
    matrix.rows = static_cast<std::uint32_t>(n);
    return true;
  });
  parser.add_value("--cols", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1u << 20)) return false;
    matrix.cols = static_cast<std::uint32_t>(n);
    return true;
  });
  parser.add_value("--seed", [&](const std::string& v) {
    return cli::parse_u64(v, matrix.base_seed);
  });
  parser.add_value("--jobs", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1024) || n == 0) return false;
    jobs = static_cast<unsigned>(n);
    return true;
  });
  parser.add_value("--reps", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 1u << 20) || n == 0) return false;
    reps = static_cast<unsigned>(n);
    return true;
  });
  parser.add_value("--out", [&](const std::string& v) {
    out_prefix = v;
    return !v.empty();
  });
  parser.add_value("--trace", [&](const std::string& v) {
    spec.options.trace_dir = v;
    return !v.empty();
  });
  parser.add_value("--max-cycles", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n) || n == 0) return false;
    spec.options.max_cycles = n;
    return true;
  });
  parser.add_value("--inject", [&](const std::string& v) {
    std::string error;
    if (!sim::FaultPlan::parse(v, inject_plan, error)) {
      parser.fail("--inject: " + error);
    }
    return true;
  });
  parser.add_value("--retries", [&](const std::string& v) {
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, 100)) return false;
    spec.retries = static_cast<unsigned>(n);
    return true;
  });
  parser.add_value("--trace-events", [&](const std::string& v) {
    // Each retained event costs 32 B per concurrently-running scenario;
    // cap the window at 64 Mi events (2 GiB) so a typo cannot request an
    // unallocatable ring and crash with bad_alloc instead of this error.
    std::uint64_t n = 0;
    if (!cli::parse_u64(v, n, std::uint64_t{1} << 26) || n == 0) return false;
    spec.options.trace_events = static_cast<std::size_t>(n);
    return true;
  });
  parser.parse(argc, argv);

  if (matrix.rows == 0 || matrix.cols == 0) {
    parser.fail("--rows/--cols must be >= 1");
  }

  const auto scenarios = matrix.expand();
  if (scenarios.empty()) parser.fail("scenario matrix expanded to zero scenarios");

  if (list_only) {
    // One rendering shared with the tests (driver/report.hpp): the cost
    // column is the scheduler's estimated_cost and the total covers
    // every rep, so the dry run predicts exactly what a sweep dispatches.
    std::fputs(driver::list_scenarios_text(scenarios, reps).c_str(), stdout);
    return 0;
  }

  if (!spec.options.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(spec.options.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "issr_run: cannot create trace directory %s: %s\n",
                   spec.options.trace_dir.c_str(), ec.message().c_str());
      return 1;
    }
    if (::access(spec.options.trace_dir.c_str(), W_OK) != 0) {
      std::fprintf(stderr, "issr_run: trace directory %s is not writable\n",
                   spec.options.trace_dir.c_str());
      return 1;
    }
  }

  // Probe every requested output destination before simulating anything:
  // an unwritable path fails here, in milliseconds, with the offending
  // flag named — not after the sweep has burned its wall-clock budget.
  {
    struct OutputPath {
      const char* flag;
      std::string path;
    };
    std::vector<OutputPath> outputs = {{"--out", out_prefix + ".json"},
                                       {"--out", out_prefix + ".csv"}};
    if (!metrics_path.empty()) outputs.push_back({"--metrics", metrics_path});
    if (!profile_host_path.empty()) {
      outputs.push_back({"--profile-host", profile_host_path});
    }
    for (const auto& o : outputs) {
      std::string why;
      if (!writable_file_path(o.path, why)) {
        std::fprintf(stderr, "issr_run: %s %s is not writable: %s\n", o.flag,
                     o.path.c_str(), why.c_str());
        return 1;
      }
    }
  }

  std::printf("issr_run: %zu scenarios, %u worker thread%s%s%s\n",
              scenarios.size(), jobs, jobs == 1 ? "" : "s",
              spec.options.trace_dir.empty() ? "" : ", tracing enabled",
              asset_cache ? "" : ", asset cache off");
  spec.scenarios = scenarios;
  spec.jobs = jobs;
  spec.reps = reps;
  spec.asset_cache = asset_cache;
  spec.progress = progress;
  if (!inject_plan.empty()) spec.options.inject = &inject_plan;
  std::unique_ptr<driver::HostProfiler> profiler;
  if (!profile_host_path.empty()) {
    profiler = std::make_unique<driver::HostProfiler>();
    spec.profiler = profiler.get();
  }
  auto outcome = driver::run_sweep(spec);
  const auto& results = outcome.results;
  const auto& st = outcome.stats;
  char cache_note[160];
  if (asset_cache) {
    std::snprintf(cache_note, sizeof cache_note,
                  "%zu workload builds + %zu shared hits, %zu program "
                  "builds + %zu shared hits",
                  st.cache.workload_builds, st.cache.workload_hits,
                  st.cache.program_builds, st.cache.program_hits);
  } else {
    // Nothing was shared: every run rebuilt its own assets locally.
    std::snprintf(cache_note, sizeof cache_note,
                  "asset cache off (every run rebuilt its assets)");
  }
  std::printf(
      "sweep: %zu runs in %.2f s (%.2f simulated MCPS aggregate), "
      "%s, %zu steals\n",
      st.runs, st.wall_seconds,
      st.wall_seconds > 0.0
          ? static_cast<double>(st.core_cycles) / st.wall_seconds / 1e6
          : 0.0,
      cache_note, st.steals);

  driver::results_table(results).print();
  if (stall_report) driver::stall_table(results).print();
  if (perf_report) driver::perf_report_table(results).print();

  const std::string json_path = out_prefix + ".json";
  const std::string csv_path = out_prefix + ".csv";
  if (!driver::write_text_file(json_path, driver::results_to_json(results))) {
    std::fprintf(stderr, "issr_run: failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (!driver::write_text_file(csv_path, driver::results_to_csv(results))) {
    std::fprintf(stderr, "issr_run: failed to write %s\n", csv_path.c_str());
    return 1;
  }
  std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());

  if (!metrics_path.empty()) {
    // One Prometheus document for the whole sweep: each scenario's
    // simulated-hardware snapshot as a labeled series — with the host's
    // per-scenario wall time and throughput folded in as host_* gauges —
    // plus the sweep engine's own unlabeled series.
    std::vector<metrics::Snapshot> per_scenario(results.size());
    std::vector<metrics::LabeledSnapshot> series;
    series.reserve(results.size() + 1);
    for (std::size_t i = 0; i < results.size(); ++i) {
      per_scenario[i] = results[i].metrics;
      metrics::Registry host;
      const double secs = outcome.run_seconds[i];
      host.observe_max("host_run_seconds", secs);
      if (secs > 0.0) {
        host.observe_max(
            "host_mcps",
            static_cast<double>(results[i].core_cycles) / secs / 1e6);
      }
      per_scenario[i].merge(host.snapshot());
      series.push_back(
          {{{"scenario", results[i].scenario.name()}}, &per_scenario[i]});
    }
    series.push_back({{}, &outcome.host_metrics});
    if (!driver::write_text_file(metrics_path,
                                 metrics::to_prometheus(series))) {
      std::fprintf(stderr, "issr_run: failed to write %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("wrote %s (Prometheus text exposition)\n",
                metrics_path.c_str());
  }

  if (profiler != nullptr) {
    if (!profiler->write(profile_host_path)) {
      std::fprintf(stderr, "issr_run: failed to write %s\n",
                   profile_host_path.c_str());
      return 1;
    }
    std::printf("wrote %s (host sweep-engine profile; open in "
                "chrome://tracing or https://ui.perfetto.dev)\n",
                profile_host_path.c_str());
  }

  unsigned trace_failures = 0;
  if (!spec.options.trace_dir.empty()) {
    for (const auto& r : results) {
      if (r.trace_write_failed) {
        std::fprintf(stderr, "issr_run: failed to write trace for %s\n",
                     r.scenario.name().c_str());
        ++trace_failures;
      }
    }
    std::printf("wrote %zu trace files under %s (open in chrome://tracing "
                "or https://ui.perfetto.dev)\n",
                results.size() - trace_failures,
                spec.options.trace_dir.c_str());
  }

  // Row disposition → exit status. Faulted/skipped rows dominate
  // (partial sweep: 2 keep-going, 3 fail-fast), then validation
  // mismatches (1, the historical failure code), then trace-write
  // failures (1), then clean (0).
  unsigned mismatches = 0;
  unsigned faults = 0;
  unsigned skipped = 0;
  for (const auto& r : results) {
    if (r.skipped) {
      std::fprintf(stderr, "SKIP: %s never ran (--fail-fast stop)\n",
                   r.scenario.name().c_str());
      ++skipped;
    } else if (r.fault) {
      std::fprintf(stderr, "FAULT: %s: %s\n", r.scenario.name().c_str(),
                   r.fault.describe().c_str());
      ++faults;
    } else if (!r.ok) {
      std::fprintf(stderr, "FAIL: %s did not match the host reference\n",
                   r.scenario.name().c_str());
      ++mismatches;
    }
  }
  if (faults || skipped) {
    std::fprintf(stderr,
                 "issr_run: %u faulted, %u skipped, %u mismatched of %zu "
                 "scenarios\n",
                 faults, skipped, mismatches, results.size());
    return spec.fail_fast ? 3 : 2;
  }
  if (mismatches) {
    std::fprintf(stderr, "issr_run: %u/%zu scenarios failed validation\n",
                 mismatches, results.size());
    return 1;
  }
  return trace_failures ? 1 : 0;
}
