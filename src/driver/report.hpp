// Machine-readable result emission for experiment sweeps: a stable JSON
// document (schema `issr_run.results.v7`), an RFC-4180-style CSV with the
// same columns, and console summary tables. All numeric formatting is
// deterministic (doubles render via %.17g round-trip notation), so two
// runs of the same scenario list — at any worker count, traced or not,
// with host profiling on or off — emit bytewise identical documents.
// v2 added the stall-attribution columns: `core_cycles` (cycles x cores
// x clusters, the attribution denominator) and one `stall_<bucket>`
// count per trace/stall.hpp bucket (the bucket columns sum to
// core_cycles for every row); v3 added the `clusters` column for the
// multi-cluster system axis; v4 added the interconnect/steal settings
// (`noc_links`, `noc_latency`, `steal`), the `stall_noc_contention`
// bucket, and `scaling_efficiency` — the row's speedup over its
// single-cluster twin in the same result set divided by its cluster
// count (1 for single-cluster rows, 0 when the twin is absent); v5 adds
// the engine-provenance header (`engine`: version/build type/LTO/
// fast-forward default — static build facts only, never runtime state),
// seven flat utilization columns appended after the stall columns
// (metrics/harvest.hpp gauges: util_fpu_fmadd, util_ssr_lane,
// util_issr_lane, util_dma, util_noc_link, tcdm_conflict_rate,
// barrier_wait_frac — the v4 column prefix is unchanged), and a nested
// per-row `metrics` object carrying the full harvested snapshot; v6 adds
// the row-disposition columns `status` ("ok" | "mismatch" | "fault" |
// "skipped") and `fault` (the machine-readable fault code, empty when
// the run completed) after `ok`, plus — JSON only, faulted rows only — a
// nested `fault_detail` object with the diagnostic payload (message,
// detection cycle, last next_event horizon, per-hart PCs, barrier
// state); v7 drops `fast_forward_default` from the engine header (the
// engine has no fast-forward any more). The full schema is documented in
// docs/RESULTS_SCHEMA.md.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "driver/paper.hpp"
#include "driver/runner.hpp"

namespace issr::driver {

/// Render results as a JSON document (trailing newline included).
std::string results_to_json(const std::vector<ScenarioResult>& results);

/// Render results as CSV with a header row.
std::string results_to_csv(const std::vector<ScenarioResult>& results);

/// Build the aligned console summary table.
Table results_table(const std::vector<ScenarioResult>& results);

/// Build the stall-attribution table (--stall-report): one row per
/// scenario, one column per bucket, as fractions of core_cycles.
Table stall_table(const std::vector<ScenarioResult>& results);

/// Build the bottleneck table (--perf-report): per scenario, the FPU
/// utilization from the metrics registry next to the paper's reference
/// anchor, the dominant (largest non-fp_compute) stall bucket with its
/// fraction of core-cycles, and the NoC-link/TCDM pressure gauges.
Table perf_report_table(const std::vector<ScenarioResult>& results);

/// Render the --list-scenarios/--dry-run listing: one line per scenario
/// (name, actual shape, seed) with its cost — exactly the
/// estimated_cost() the sweep scheduler dispatches by, including the
/// cluster-ness multiplicity — and a summary line whose total multiplies
/// the per-scenario sum by `reps` (every rep is a full simulation).
/// Returned with a trailing newline; tests diff this against the
/// scheduler's own numbers so the printout can never drift from them.
std::string list_scenarios_text(const std::vector<Scenario>& scenarios,
                                unsigned reps);

/// Write `content` to `path`; returns false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace issr::driver
