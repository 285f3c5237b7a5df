#include "system/system.hpp"

#include <cassert>
#include <cstdio>

#include "core/engine.hpp"

namespace issr::system {

namespace {

mem::InterconnectConfig noc_config(const SystemConfig& config) {
  mem::InterconnectConfig nc = config.noc;
  nc.num_clusters = config.num_clusters;
  return nc;
}

}  // namespace

System::System(
    const SystemConfig& config,
    std::vector<std::vector<std::shared_ptr<const isa::Program>>>
        programs_per_cluster)
    : config_(config),
      noc_(noc_config(config)),
      barrier_(config.num_clusters, config.barrier_hop_latency,
               config.barrier_fan_in) {
  assert(config_.num_clusters >= 1);
  assert(programs_per_cluster.size() == config_.num_clusters);
  if (config_.arena != nullptr) main_.store().set_arena(config_.arena);
  Cluster::CompiledCache compiled;
  for (unsigned c = 0; c < config_.num_clusters; ++c) {
    ClusterConfig cc = config_.cluster;
    cc.shared_main = &main_;
    cc.arena = config_.arena;
    // The System's engine owns fast-forward; a cluster's own run() is
    // never invoked, so its flag is irrelevant, but keep them coherent.
    cc.fast_forward = config_.fast_forward;
    clusters_.push_back(std::make_unique<Cluster>(
        cc, std::move(programs_per_cluster[c]), &compiled));
    clusters_.back()->dma().set_noc(&noc_, c);
  }
  compiled_programs_ = compiled.size();
}

void System::attach_trace(trace::TraceSink& sink) {
  ordered_ = std::make_unique<OrderedSink>(sink);
  for (unsigned c = 0; c < num_clusters(); ++c) {
    clusters_[c]->attach_trace(*ordered_, "c" + std::to_string(c) + ".");
  }
  noc_.attach_trace(*ordered_);
  barrier_.tracer().attach(*ordered_, ordered_->add_track("system", "barrier"));
  trace_sink_ = ordered_.get();
}

SystemResult System::run(cycle_t max_cycles) {
  // Lockstep engine over every cluster. The rotating tick order decides
  // which cluster's DMA claims a contended bank group (and which steal
  // request reaches the work queue) first in a cycle — a deterministic
  // function of the cycle number, so no cluster is statically favored
  // and runs stay reproducible regardless of host parallelism.
  struct Units {
    System& s;
    void tick(cycle_t now) {
      s.noc_.begin_cycle(now);
      const unsigned n = s.num_clusters();
      const unsigned start = static_cast<unsigned>(now % n);
      for (unsigned k = 0; k < n; ++k) {
        s.clusters_[(start + k) % n]->tick(now);
      }
    }
    bool done(cycle_t now) const {
      for (const auto& c : s.clusters_) {
        if (!c->done(now)) return false;
      }
      return true;
    }
    cycle_t next_event(cycle_t now) const {
      cycle_t horizon = kCycleNever;
      for (const auto& c : s.clusters_) {
        const cycle_t ce = c->next_event(now);
        if (ce < horizon) horizon = ce;
        if (horizon <= now) break;
      }
      return horizon;
    }
    void visit_counters(const core::CounterVisitor& f) {
      for (auto& c : s.clusters_) c->visit_wait_counters(f);
    }
    void after_replay() {
      for (auto& c : s.clusters_) c->resync_account();
    }
  };
  core::EngineRun er;
  SystemResult result;
  // Per-cluster fast-forward attribution handed to harvest. The serial
  // engine only has the system-wide skip count; the parallel engine
  // knows each lane's. Both are diagnostics, never part of result files.
  std::vector<cycle_t> lane_skipped;
  const unsigned eff =
      resolve_host_threads(config_.host_threads, num_clusters());
  // The parallel engine requires a strictly positive release latency: a
  // zero-latency SysBarrier release is observable in its own arrival
  // cycle, an ordering only the serial rotation reproduces.
  if (eff >= 2 && num_clusters() >= 2 && barrier_.release_latency() > 0) {
    std::vector<Cluster*> lanes;
    lanes.reserve(clusters_.size());
    for (auto& c : clusters_) lanes.push_back(c.get());
    ParOutcome po =
        run_parallel(lanes, noc_, barrier_, max_cycles, config_.fast_forward,
                     eff, ordered_.get());
    er = po.run;
    lane_skipped = std::move(po.lane_skipped);
    result.par = po.stats;
  } else {
    er = core::run_engine(Units{*this}, max_cycles, config_.fast_forward);
    lane_skipped.assign(num_clusters(), er.skipped);
  }
  const cycle_t now = er.cycles;
  const bool aborted = er.stop != core::EngineStop::kDone;

  result.cycles = now;
  result.ff_skipped = er.skipped;
  result.aborted = aborted;
  result.compiled_programs = compiled_programs_;
  // The run is over (or truncated): lift the interconnect budgets so
  // each cluster's harvest drain can flush pending stores unthrottled,
  // then restore them — a System must stay configured as built.
  noc_.set_unlimited(true);
  for (unsigned c = 0; c < num_clusters(); ++c) {
    result.clusters.push_back(
        clusters_[c]->harvest(now, lane_skipped[c], aborted));
    if (aborted) {
      result.clusters.back().fault =
          clusters_[c]->classify_stop(er.stop, now, er.last_horizon, c);
    }
  }
  noc_.set_unlimited(false);
  noc_.close_trace();
  if (aborted) {
    // System-level classification subsumes the per-cluster ones: a run
    // wedged with clusters parked on the inter-cluster barrier (or any
    // worker at its HW barrier) is a barrier deadlock; otherwise the
    // cycle budget / generic no-progress code stands.
    sim::Fault& f = result.fault;
    const unsigned parked = barrier_.waiting();
    bool any_barrier = parked > 0;
    for (const auto& cr : result.clusters) {
      if (cr.fault.code == sim::FaultCode::kBarrierDeadlock) {
        any_barrier = true;
      }
      for (const auto& h : cr.fault.harts) f.harts.push_back(h);
      f.stalls += cr.fault.stalls;
    }
    if (er.stop == core::EngineStop::kCycleLimit) {
      f.code = sim::FaultCode::kCycleLimit;
      f.message = "cycle budget exhausted before every cluster was done";
    } else if (any_barrier) {
      f.code = sim::FaultCode::kBarrierDeadlock;
      f.message =
          "clusters parked on a barrier release that can never arrive";
    } else {
      f.code = sim::FaultCode::kWatchdogNoProgress;
      f.message = "no cluster can make progress without an external event";
    }
    f.cycle = now;
    f.last_next_event = er.last_horizon;
    {
      char buf[96];
      std::snprintf(buf, sizeof buf, "sys_barrier: %u/%u arrived, gen %llu",
                    parked, num_clusters(),
                    static_cast<unsigned long long>(barrier_.generation()));
      f.barrier = buf;
    }
    if (trace_sink_ != nullptr) {
      trace::Tracer watchdog;
      watchdog.attach(*trace_sink_,
                      trace_sink_->add_track("system", "watchdog"));
      watchdog.instant(now, sim::to_string(f.code), parked);
    }
  }
  result.main_mem_read = main_.bytes_read();
  result.main_mem_written = main_.bytes_written();
  result.noc_links = noc_.link_stats();
  result.noc_group_conflicts = noc_.group_conflicts();
  result.noc_config = noc_.config();
  return result;
}

}  // namespace issr::system
