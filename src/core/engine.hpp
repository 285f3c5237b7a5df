// The cycle engine: the one per-cycle loop behind CcSim::run and
// System::run. Each iteration advances the simulated units by one
// cycle (or, through the fused executor's tick_span, by a burst of fused
// cycles), checks the run-termination predicate, then consults every
// unit's next_event horizon for the no-progress watchdog.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace issr::core {

/// Why run_engine stopped ticking.
enum class EngineStop : std::uint8_t {
  kDone,        ///< the done() predicate fired: a normal finish
  kCycleLimit,  ///< max_cycles elapsed first: the run is truncated
  /// The exact no-forward-progress watchdog fired: every unit reported
  /// next_event == kCycleNever ("only an external event can change
  /// anything") while done() was false. No unit can then supply that
  /// event, so the state repeats forever — the run is provably wedged (a
  /// deadlocked barrier, a never-satisfied wait), and the engine stops at
  /// the detection cycle instead of burning the budget.
  kNoProgress,
};

/// One completed run_engine invocation.
struct EngineRun {
  cycle_t cycles = 0;  ///< final cycle count
  EngineStop stop = EngineStop::kDone;
  /// The units' next_event horizon at the stop cycle (kCycleNever when
  /// the no-progress watchdog fired) — fault diagnostics.
  cycle_t last_horizon = 0;
};

/// Run `units` until done() or `max_cycles`. `Units` duck-types the
/// simulated system:
///   void    tick(cycle_t now);          // advance every unit one cycle
///   bool    done(cycle_t now);          // run-termination predicate
///   cycle_t next_event(cycle_t now);    // kCycleNever iff nothing can
///                                       // change without an external
///                                       // event; otherwise a lower bound
///                                       // on the next cycle that can
///                                       // differ from the one just ticked
/// Units may instead provide
///   cycle_t tick_span(cycle_t now, cycle_t limit);  // advance >= 1 cycles,
///                                       // return the new cycle count
/// which the loop then calls in place of tick(); the fused executor
/// (core/compile.hpp) uses it to burst through consecutive fused cycles
/// without paying the per-cycle done()/next_event() scans. A burst must
/// stop (and return to the engine) no later than `limit`, and at the
/// first cycle that makes no forward progress — the checks it skips are
/// exactly those an unfused run would answer "not done, horizon == now".
/// Whenever its fast path does not apply it performs one ordinary tick.
template <typename Units>
EngineRun run_engine(Units&& units, cycle_t max_cycles) {
  EngineRun run;
  run.stop = EngineStop::kCycleLimit;  // reached only by exhausting the loop
  cycle_t now = 0;
  while (now < max_cycles) {
    if constexpr (requires { units.tick_span(now, max_cycles); }) {
      now = units.tick_span(now, max_cycles);
    } else {
      units.tick(now);
      ++now;
    }
    if (units.done(now)) {
      run.stop = EngineStop::kDone;
      run.last_horizon = now;
      break;
    }
    if (units.next_event(now) == kCycleNever) {
      run.stop = EngineStop::kNoProgress;
      run.last_horizon = kCycleNever;
      break;
    }
  }
  run.cycles = now;
  if (run.stop == EngineStop::kCycleLimit) {
    run.last_horizon = units.next_event(now);
  }
  return run;
}

}  // namespace issr::core
