// Inter-cluster barrier/reduction: the upper level of the hierarchical
// synchronization scheme (workers sync on their cluster's zero-latency HW
// barrier, clusters sync on this one). Modeled as a *tree* of
// fetch-and-increment counters in shared memory with configurable fan-in:
// each group of `fan_in` children notifies one parent node, so N clusters
// need ceil(log_fan_in(N)) levels. An arrival propagates up one hop per
// level and the release broadcast propagates back down, each hop costing
// `hop_latency` cycles — the release is observed 2 * levels * hop_latency
// cycles after the last arrival. This replaces the flat sense-reversing
// barrier whose single counter serialized every cluster on one memory
// location and charged one flat latency regardless of topology.
//
// Timing is exact without simulating the tree nodes cycle-by-cycle: every
// up-hop of a non-last arrival strictly precedes the last arrival's
// (arrivals at inner nodes only wait for the *last* child), so the
// critical path is always the last arrival's root round trip. The
// optional reduction rides the same tree for free: arrive() can carry a
// u64 operand, and the sum over the generation is readable once released.
//
// Sense-reversing via generation counters, so it is reusable any number
// of times. release_hint() exposes the already-determined release cycle
// of a completed generation; a parked controller reports it as its
// watchdog horizon (cluster/cluster.hpp, set_controller_idle_until).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace issr::system {

class SysBarrier {
 public:
  /// `n` clusters synchronize through a tree of fan-in `fan_in` (clamped
  /// to >= 2); each of the ceil(log_fan_in(n)) levels costs `hop_latency`
  /// cycles per direction. n == 1 degenerates to a zero-level tree that
  /// releases at the arrival cycle.
  SysBarrier(unsigned n, cycle_t hop_latency, unsigned fan_in = 4)
      : n_(n),
        hop_latency_(hop_latency),
        fan_in_(fan_in < 2 ? 2 : fan_in),
        target_(n, 0) {
    for (unsigned span = 1; span < n_; span *= fan_in_) ++levels_;
  }

  /// Timeline hook: one "release" instant per completed generation,
  /// stamped at the cycle the release becomes observable.
  trace::Tracer& tracer() { return trace_; }

  unsigned fan_in() const { return fan_in_; }
  unsigned levels() const { return levels_; }
  cycle_t hop_latency() const { return hop_latency_; }
  /// Observable release delay after the last arrival: the root round trip.
  cycle_t release_latency() const { return 2 * levels_ * hop_latency_; }

  /// Register cluster `c`'s arrival at its current generation, optionally
  /// carrying a reduction operand. Idempotent while the cluster is
  /// waiting; must not be called again until released() has returned true
  /// for `c`.
  void arrive(unsigned c, cycle_t now, std::uint64_t operand = 0) {
    if (target_[c] != 0) return;  // already arrived, still waiting
    target_[c] = gen_ + 1;
    accum_ += operand;
    if (++arrived_ == n_) {
      if (drop_next_release_) {
        // Injected fault (sim::InjectKind::kBarrierDrop): the release
        // broadcast is swallowed — arrived_ stays saturated, gen_ never
        // bumps, release_hint() stays kCycleNever for every cluster, so
        // the engine's no-progress watchdog fires exactly.
        trace_.instant(now, "dropped_release", gen_ + 1);
        return;
      }
      arrived_ = 0;
      ++gen_;
      release_at_ = now + release_latency();
      reduced_ = accum_;
      accum_ = 0;
      trace_.instant(release_at_, "release", gen_);
    }
  }

  /// True once the generation `c` arrived in has completed AND its
  /// release has propagated back down the tree (now >= last arrival +
  /// 2 * levels * hop_latency). The first true consumes the arrival: the
  /// next arrive() starts a new generation for this cluster.
  bool released(unsigned c, cycle_t now) {
    assert(target_[c] != 0 && "released() polled without a prior arrive()");
    if (gen_ >= target_[c] && now >= release_at_) {
      target_[c] = 0;
      return true;
    }
    return false;
  }

  /// Watchdog hint for a cluster parked in released()-polling: the cycle
  /// its release becomes observable if its generation has completed, else
  /// kCycleNever (the release time is decided by a future arrival of some
  /// *other* cluster, whose own activity keeps the system hot).
  cycle_t release_hint(unsigned c) const {
    if (target_[c] != 0 && gen_ >= target_[c]) return release_at_;
    return kCycleNever;
  }

  /// Sum of the operands of the most recently completed generation.
  std::uint64_t reduced() const { return reduced_; }

  std::uint64_t generation() const { return gen_; }

  /// Clusters currently parked in the open generation (fault diagnostics).
  unsigned waiting() const { return arrived_; }

  /// Deterministic fault injection: swallow the next release broadcast so
  /// the barrier deadlocks (see sim/fault.hpp). Irreversible for the run.
  void inject_drop_next_release() { drop_next_release_ = true; }

 private:
  unsigned n_;
  cycle_t hop_latency_;
  unsigned fan_in_;
  unsigned levels_ = 0;
  std::vector<std::uint64_t> target_;  ///< 0 = not arrived; else gen awaited
  unsigned arrived_ = 0;
  std::uint64_t gen_ = 0;
  // Only the latest completed generation's release time is needed: a new
  // generation cannot complete before every cluster has passed the
  // previous release (each must observe it before re-arriving).
  cycle_t release_at_ = 0;
  bool drop_next_release_ = false;  ///< injected deadlock (fault testing)
  std::uint64_t accum_ = 0;    ///< running reduction of the open generation
  std::uint64_t reduced_ = 0;  ///< reduction of the last completed generation
  trace::Tracer trace_;
};

}  // namespace issr::system
