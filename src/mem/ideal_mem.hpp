// Ideal pipelined memory: every port accepts one request per cycle and
// answers loads with a fixed latency — the "ideal single-cycle instruction
// and two-port data memories" of the paper's single-CC experiments
// (§IV-A), which behave like the TCDM minus bank conflicts and misses.
#pragma once

#include <vector>

#include "mem/backing_store.hpp"
#include "mem/port.hpp"

namespace issr::mem {

/// A backing store with N independent ideal ports. Each port accepts <=1
/// request/cycle; loads mature `latency` cycles after acceptance;
/// throughput is one access per cycle per port.
class IdealMemory {
 public:
  /// `latency`: cycles from acceptance to response availability (>= 1).
  explicit IdealMemory(unsigned num_ports, cycle_t latency = 1);

  MemPort& port(unsigned i) { return ports_.at(i); }
  unsigned num_ports() const { return static_cast<unsigned>(ports_.size()); }
  cycle_t latency() const { return latency_; }

  BackingStore& store() { return store_; }
  const BackingStore& store() const { return store_; }

  /// Advance one cycle: grant each port's pending request and mature
  /// responses. Must run before requesters tick.
  void tick(cycle_t now);

  /// Watchdog horizon: earliest cycle any port changes state on its own
  /// (kCycleNever when every port is drained and idle).
  cycle_t next_event() const;

 private:
  BackingStore store_;
  std::vector<MemPort> ports_;
  cycle_t latency_;
};

}  // namespace issr::mem
