// The batched in-process sweep engine: one call runs a whole scenario
// suite with shared immutable assets, arena-backed per-run state, and a
// cost-ordered task queue.
//
// Scheduling: every (scenario, rep) pair is one task on a single list.
// Scenarios sit in stable descending order of estimated cost (shape,
// nnz, variant and cluster-ness), each followed by its reps; workers
// take the next task from one shared cursor, so an idle worker always
// picks up the costliest task left and a heavy cluster run starts early
// instead of straggling at the end.
//
// Determinism: every run is a pure function of its scenario, so results
// land at their scenario's index and the output documents are bytewise
// identical for any `jobs` and any `reps` — and to running each scenario
// alone through run_scenario() with no asset cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "driver/assets.hpp"
#include "driver/runner.hpp"
#include "driver/scenario.hpp"
#include "metrics/metrics.hpp"

namespace issr::driver {

class HostProfiler;

/// One batched sweep request.
struct SweepSpec {
  std::vector<Scenario> scenarios;
  unsigned jobs = 1;  ///< worker threads (<=1 runs inline on the caller)
  /// Times each scenario is simulated. Reps exercise throughput (and the
  /// engine asserts their results are identical); the result list always
  /// carries one entry per scenario, so reports are rep-invariant.
  unsigned reps = 1;
  /// When non-null, the engine records a wall-clock timeline into it:
  /// one track per worker (run slices named by scenario) plus a phases
  /// track (--profile-host). Observational only — never read by the
  /// simulation, never reflected in results.
  HostProfiler* profiler = nullptr;
  /// Emit a throttled stderr heartbeat (done/total, percent by
  /// estimated cost, current MCPS, ETA) while the sweep runs
  /// (--progress). Writes only to stderr, so stdout and every result
  /// file stay bytewise identical with it on or off.
  bool progress = false;
  /// Host-side transient-failure retries per task (--retries). Only a
  /// C++ exception escaping a worker is retried — with the same seed,
  /// since every run is a pure function of its scenario; a *simulated*
  /// fault (watchdog, deadlock, cycle limit, invalid input) is
  /// deterministic and never retried. Attempt counts land in the host
  /// metrics only, so a healed row is byte-identical to a clean one.
  unsigned retries = 0;
  /// Stop dispatching at the first faulted row (--fail-fast); rows that
  /// never ran come back with `skipped` set. The default keep-going mode
  /// isolates each fault to its own row and is the only mode whose
  /// output is jobs-invariant (which rows get skipped depends on timing).
  bool fail_fast = false;
  RunOptions options;
};

/// Execution telemetry for one sweep (observational only — nothing here
/// feeds the result files).
struct SweepStats {
  /// Simulations executed: scenarios x reps, less the tasks a
  /// --fail-fast stop left untaken.
  std::size_t runs = 0;
  /// Inert (always 0): kept only for perfbench, see ROADMAP item 6.
  std::size_t steals = 0;
  std::size_t fault_rows = 0;    ///< result rows carrying a Fault
  std::size_t skipped_rows = 0;  ///< rows never run (--fail-fast stop)
  std::size_t host_retries = 0;  ///< re-attempts after host exceptions
  /// Aggregate simulated core-cycles over every run including reps (the
  /// sweep MCPS numerator).
  std::uint64_t core_cycles = 0;
  double wall_seconds = 0.0;
  AssetCacheStats cache;  ///< the sweep's shared asset cache traffic
};

struct SweepOutcome {
  std::vector<ScenarioResult> results;  ///< positionally aligned, one per scenario
  SweepStats stats;
  /// Host-engine metrics (host_* namespace): per-worker run/busy
  /// counters and run-time histogram merged across workers, plus
  /// fault/cache/arena/wall aggregates. Observational: feeds --metrics,
  /// never the result documents.
  metrics::Snapshot host_metrics;
  /// Rep-0 wall seconds per scenario, positionally aligned with
  /// `results` (host-side timing; zeros only if a scenario never ran).
  std::vector<double> run_seconds;
};

/// Expected relative wall cost of simulating `s` (arbitrary units,
/// roughly proportional to simulated core-cycles weighted by the
/// per-cycle expense of the engine it runs on). Only the ordering
/// matters: run_sweep dispatches descending.
double estimated_cost(const Scenario& s);

/// Run the sweep. Results are bitwise independent of jobs/reps.
SweepOutcome run_sweep(const SweepSpec& spec);

}  // namespace issr::driver
