// Hierarchical multi-cluster system model: N Snitch clusters — each with
// its own TCDM, DMA engine, workers, and HW barrier — behind a
// topology-aware Interconnect (per-cluster links + bank-group crossbar,
// mem/interconnect.hpp) to one shared main memory, plus a hierarchical
// tree barrier with configurable fan-in and per-hop latency
// (system/barrier.hpp). This is the scale-out axis above
// cluster/cluster.hpp: the paper evaluates ISSR inside a single eight-core
// cluster; the System model asks what its kernels do when several such
// clusters contend for one memory system.
//
// The paper's own cluster is the System of one with no fabric
// (SystemConfig::fabric = false): no interconnect, no crossbar and no
// inter-cluster barrier. Its cluster's DMA reaches main memory directly,
// the run ends when its controller is done, and faults, traces and
// statistics read as the cluster's own. Every single-cluster run takes
// this path, so one cluster and many run through the same code.
//
// Simulation runs all clusters in lockstep system cycles through the
// serial engine (core/engine.hpp): a cycle resets the interconnect's
// per-cycle budgets, then ticks every cluster in a rotating order — the
// rotation is the NoC's arbiter, so no cluster is statically favored at a
// contended link or bank group and runs stay reproducible. A controller
// parked on the inter-cluster barrier declares its wake-up cycle
// (set_controller_idle_until), kCycleNever while the release is
// undecided, so a release that can never arrive stops the run at the
// no-progress watchdog.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/arena.hpp"
#include "mem/interconnect.hpp"
#include "mem/main_mem.hpp"
#include "system/barrier.hpp"

namespace issr::system {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::ClusterResult;

struct SystemConfig {
  unsigned num_clusters = 1;
  /// Per-cluster template (worker count, TCDM, CC parameters).
  ClusterConfig cluster;
  /// Interconnect topology between the clusters and the shared memory:
  /// per-cluster link budgets, bank-group crossbar, link latency
  /// (mem/interconnect.hpp). num_clusters is overridden by the System.
  mem::InterconnectConfig noc;
  /// Inter-cluster tree barrier: per-hop latency and fan-in (see
  /// system/barrier.hpp; release = 2 * levels * hop after last arrival —
  /// the defaults give 8 clusters the flat model's 32-cycle release).
  cycle_t barrier_hop_latency = 8;
  unsigned barrier_fan_in = 4;
  /// False selects the topology with no fabric: no interconnect, no
  /// crossbar and no inter-cluster barrier, so `noc` and the barrier
  /// settings go unused. Only a single cluster may run on it.
  bool fabric = true;
  /// When non-null, backs the shared main memory and every cluster's
  /// TCDM pages (observational only; common/arena.hpp).
  Arena* arena = nullptr;
};

/// Inert (all zero): kept only for perfbench, see ROADMAP item 6.
struct ParStats {
  std::uint64_t rounds = 0;
  std::uint64_t lockstep_cycles = 0;
  std::uint64_t barrier_wait_us = 0;
  void merge(const ParStats&) {}
};

/// Per-run system statistics: the per-cluster results (each covering the
/// full system cycle count — clusters run in lockstep) plus aggregates.
/// Note main_mem_read/_written in each ClusterResult alias the *shared*
/// memory's totals; use the SystemResult fields for system-wide traffic.
struct SystemResult {
  cycle_t cycles = 0;
  /// True iff the run ended before every cluster was done (cycle budget
  /// or no-progress watchdog); `fault` classifies the reason with the
  /// system-wide diagnostic snapshot (every hart's PC, SysBarrier
  /// occupancy, per-cluster barrier/DMA state).
  bool aborted = false;
  sim::Fault fault;
  std::vector<ClusterResult> clusters;
  std::uint64_t main_mem_read = 0;
  std::uint64_t main_mem_written = 0;
  /// Per-cluster link traffic/denial counters and the number of denials
  /// attributable to a saturated bank group (mem/interconnect.hpp). Empty
  /// when the System had no fabric.
  std::vector<mem::LinkStats> noc_links;
  std::uint64_t noc_group_conflicts = 0;
  /// The interconnect topology the run used (as the System normalized
  /// it) — carried so post-run consumers can turn the raw link counters
  /// into busy fractions (beats granted / offered link capacity) without
  /// re-deriving the configuration.
  mem::InterconnectConfig noc_config;
  /// Inert (always zero): kept only for perfbench, see ROADMAP item 6.
  ParStats par;
  /// Translations the workers ran on: one per distinct worker program
  /// object. Host-side, never serialized.
  std::size_t compiled_programs = 0;

  /// Attribution denominator: cycles x total worker count.
  std::uint64_t core_cycles() const {
    std::uint64_t workers = 0;
    for (const auto& c : clusters) workers += c.stalls.size();
    return cycles * workers;
  }

  /// System-wide attribution: sums to core_cycles().
  trace::StallBuckets total_stalls() const {
    trace::StallBuckets t;
    for (const auto& c : clusters) t += c.total_stalls();
    return t;
  }

  /// Aggregate FPU utilization over every worker FPU in the system.
  double fpu_util() const {
    if (cycles == 0) return 0.0;
    std::uint64_t compute = 0, fpus = 0;
    for (const auto& c : clusters) {
      for (const auto& f : c.fpss) compute += f.fp_compute;
      fpus += c.fpss.size();
    }
    if (fpus == 0) return 0.0;
    return static_cast<double>(compute) /
           (static_cast<double>(cycles) * static_cast<double>(fpus));
  }

  std::uint64_t total_macs() const {
    std::uint64_t n = 0;
    for (const auto& c : clusters) n += c.total_macs();
    return n;
  }
};

class System {
 public:
  /// `programs_per_cluster` must hold `num_clusters` entries of
  /// `cluster.num_workers` worker programs each. A program object handed
  /// to several clusters (the work-stealing kernels give every cluster
  /// the same worker images) is held once and translated once for every
  /// worker that runs it.
  System(const SystemConfig& config,
         std::vector<std::vector<std::shared_ptr<const isa::Program>>>
             programs_per_cluster);

  unsigned num_clusters() const {
    return static_cast<unsigned>(clusters_.size());
  }
  Cluster& cluster(unsigned i) { return *clusters_.at(i); }
  mem::MainMemory& main_mem() { return main_; }
  mem::Interconnect& noc() { return noc_; }
  SysBarrier& barrier() { return barrier_; }

  /// Install cluster `i`'s DMCC controller (cluster/cluster.hpp).
  void set_controller(unsigned i, Cluster::Controller c) {
    clusters_.at(i)->set_controller(std::move(c));
  }

  /// Attach cycle-resolved tracing: every cluster's tracks under a
  /// "c<k>." prefix plus the interconnect's and the inter-cluster
  /// barrier's tracks. Without a fabric, only the cluster's own tracks,
  /// unprefixed.
  void attach_trace(trace::TraceSink& sink);

  /// Run to completion (all clusters done). If `max_cycles` elapse
  /// first, the result comes back with `aborted` set and `fault` says
  /// why: the system-wide classification, or without a fabric the
  /// cluster's own.
  SystemResult run(cycle_t max_cycles = 2'000'000'000);

 private:
  SystemConfig config_;
  mem::MainMemory main_;
  mem::Interconnect noc_;
  SysBarrier barrier_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::size_t compiled_programs_ = 0;  ///< SystemResult::compiled_programs
  /// Sink from attach_trace (null when untraced): run() emits one
  /// instant on a "system"/"watchdog" track when a run ends in a Fault.
  trace::TraceSink* trace_sink_ = nullptr;
};

}  // namespace issr::system
