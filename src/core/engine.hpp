// Process-wide cycle-engine options.
//
// The simulation engines (CcSim::run, Cluster::run) fast-forward provably
// idle stretches by default: after each tick every unit reports the
// earliest future cycle at which its behavior can change (next_event), and
// when that horizon is more than one cycle away the engine executes one
// more real tick to measure the per-cycle counter bumps of the wait state,
// then replays the remaining wait cycles arithmetically — bulk-crediting
// cycle counts, stall counters, and the stall-attribution bucket without
// ticking. The skip is exact by construction (every counter, stall bucket,
// and result byte matches a cycle-by-cycle run; tests/test_engine_
// equivalence.cpp sweeps the scenario matrix both ways), but it can be
// disabled here (--no-fast-forward on issr_run and every bench) so any
// suspected discrepancy can be bisected to the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace issr::cli {
class FlagParser;
}

namespace issr::core {

/// Default for CcSimConfig::fast_forward / ClusterConfig::fast_forward.
/// Read at config construction; set it before building simulators.
bool engine_fast_forward_default();
void set_engine_fast_forward_default(bool on);

/// Register the shared engine flag (--no-fast-forward) on a binary's
/// flag parser. Used by issr_run and, via bench_common, every bench.
void register_engine_cli(cli::FlagParser& parser);

/// Why run_engine stopped ticking.
enum class EngineStop : std::uint8_t {
  kDone,        ///< the done() predicate fired: a normal finish
  kCycleLimit,  ///< max_cycles elapsed first: the run is truncated
  /// The exact no-forward-progress watchdog fired: every unit reported
  /// next_event == kCycleNever ("only an external event can change
  /// anything") while done() was false. By the fast-forward contract
  /// that state repeats forever — the run is provably wedged (a
  /// deadlocked barrier, a never-satisfied wait), so the engine stops
  /// at the detection cycle instead of burning the budget.
  kNoProgress,
};

/// One completed run_engine invocation.
struct EngineRun {
  cycle_t cycles = 0;   ///< final cycle count
  cycle_t skipped = 0;  ///< cycles credited arithmetically, not ticked
  EngineStop stop = EngineStop::kDone;
  /// The units' next_event horizon at the stop cycle (kCycleNever when
  /// the no-progress watchdog fired) — fault diagnostics.
  cycle_t last_horizon = 0;
};

/// The shared tick/fast-forward loop behind CcSim::run and Cluster::run.
/// `Units` duck-types the simulated system:
///   void    tick(cycle_t now);          // advance every unit one cycle
///   bool    done(cycle_t now);          // run-termination predicate
///   cycle_t next_event(cycle_t now);    // earliest cycle any unit's tick
///                                       // can differ from the one just
///                                       // performed (kCycleNever = only
///                                       // an external event could)
///   void    visit_counters(const CounterVisitor&);  // every counter that
///                                       // advances during a pure-wait
///                                       // stretch (type-erased: it runs
///                                       // only on the rare skip events)
///   void    after_replay();             // e.g. stall-accountant resync
/// Units may additionally provide
///   cycle_t tick_span(cycle_t now, cycle_t limit);  // advance >= 1 cycles,
///                                       // return the new cycle count
/// which the loop top then calls instead of tick(); the fused executor
/// (core/compile.hpp) uses it to burst through consecutive fused cycles
/// without paying the per-cycle done()/next_event() scans. A burst must
/// stop (and return to the engine) no later than `limit`, at the first
/// cycle that makes no forward progress — the horizon checks it skips
/// are exactly those an unfused run would answer "progressing, horizon
/// == now" — and
/// whenever its fast path does not apply, in which case it performs one
/// ordinary tick so the engine's per-cycle contract resumes.
/// The skip is exact: when next_event reports a horizon more than one
/// cycle away, one more real tick measures the wait state's per-cycle
/// counter deltas and the remaining span replays as delta*span —
/// identical cycle counts, counters, stall buckets, and result bytes
/// either way (tests/test_engine_equivalence.cpp).
///
/// The no-progress watchdog checks the horizon every cycle in both modes
/// (with fast-forward off, next_event is consulted for the watchdog only,
/// never to skip), so a wedged run stops at the same simulated cycle —
/// and reports the same Fault — with fast-forward on or off.
using CounterVisitor = std::function<void(std::uint64_t&)>;

template <typename Units>
EngineRun run_engine(Units&& units, cycle_t max_cycles, bool fast_forward) {
  std::vector<std::uint64_t> c0, c1;
  const auto gather = [&units](std::vector<std::uint64_t>& out) {
    out.clear();
    units.visit_counters([&out](std::uint64_t& c) { out.push_back(c); });
  };

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
      break;
    }
    cycle_t horizon = units.next_event(now);
    if (horizon == kCycleNever) {
      run.stop = EngineStop::kNoProgress;
      run.last_horizon = kCycleNever;
      break;
    }
    if (!fast_forward) continue;

    if (horizon > max_cycles) horizon = max_cycles;
    if (horizon < now + 2) continue;

    // Cycles [now, horizon) are pure repeats of the tick just performed.
    // Run the first for real to measure the per-cycle counter bumps.
    gather(c0);
    units.tick(now);
    ++now;
    if (units.done(now)) {  // horizon precludes this; stay exact
      run.stop = EngineStop::kDone;
      break;
    }
    gather(c1);
    const cycle_t span = horizon - now;
    if (span > 0) {
      std::size_t i = 0;
      units.visit_counters([&](std::uint64_t& c) {
        c += (c1[i] - c0[i]) * span;
        ++i;
      });
      units.after_replay();
      now = horizon;
      run.skipped += span;
      if (units.done(now)) {
        run.stop = EngineStop::kDone;
        break;
      }
    }
  }
  run.cycles = now;
  if (run.stop != EngineStop::kNoProgress) {
    run.last_horizon = run.stop == EngineStop::kDone ? now
                                                     : units.next_event(now);
  }
  return run;
}

}  // namespace issr::core
