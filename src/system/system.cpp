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
  assert(config_.fabric || config_.num_clusters == 1);
  assert(programs_per_cluster.size() == config_.num_clusters);
  if (config_.arena != nullptr) main_.store().set_arena(config_.arena);
  Cluster::CompiledCache compiled;
  for (unsigned c = 0; c < config_.num_clusters; ++c) {
    clusters_.push_back(std::make_unique<Cluster>(
        config_.cluster, main_, config_.arena,
        std::move(programs_per_cluster[c]), compiled));
    if (config_.fabric) clusters_.back()->dma().set_noc(&noc_, c);
  }
  compiled_programs_ = compiled.size();
}

void System::attach_trace(trace::TraceSink& sink) {
  if (!config_.fabric) {
    clusters_[0]->attach_trace(sink);
    return;
  }
  for (unsigned c = 0; c < num_clusters(); ++c) {
    // Appended piecewise: GCC 12 misreads `"c" + std::string` as an
    // overlapping memcpy (-Wrestrict) once it is inlined here.
    std::string prefix = "c";
    prefix += std::to_string(c);
    prefix += '.';
    clusters_[c]->attach_trace(sink, prefix);
  }
  noc_.attach_trace(sink);
  barrier_.tracer().attach(sink, sink.add_track("system", "barrier"));
  trace_sink_ = &sink;
}

SystemResult System::run(cycle_t max_cycles) {
  // Lockstep engine over every cluster. The rotating tick order decides
  // which cluster's DMA claims a contended bank group (and which steal
  // request reaches the work queue) first in a cycle — a deterministic
  // function of the cycle number, so no cluster is statically favored
  // and runs stay reproducible.
  struct Units {
    System& s;
    void tick(cycle_t now) {
      if (!s.config_.fabric) return s.clusters_[0]->tick(now);
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
  };
  const core::EngineRun er = core::run_engine(Units{*this}, max_cycles);
  const cycle_t now = er.cycles;
  const bool aborted = er.stop != core::EngineStop::kDone;

  SystemResult result;
  result.cycles = now;
  result.aborted = aborted;
  result.compiled_programs = compiled_programs_;
  // The run is over (or truncated): lift the interconnect budgets so
  // each cluster's harvest drain can flush pending stores unthrottled,
  // then restore them — a System must stay configured as built.
  noc_.set_unlimited(true);
  for (unsigned c = 0; c < num_clusters(); ++c) {
    result.clusters.push_back(clusters_[c]->harvest(now, aborted));
    if (aborted) {
      result.clusters.back().fault =
          clusters_[c]->classify_stop(er.stop, now, er.last_horizon, c);
    }
  }
  noc_.set_unlimited(false);
  noc_.close_trace();
  if (aborted && !config_.fabric) {
    // No fabric, nothing above the cluster to classify: the cluster's
    // fault is the run's.
    result.fault = result.clusters[0].fault;
  } else if (aborted) {
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
  if (config_.fabric) {
    result.noc_links = noc_.link_stats();
    result.noc_group_conflicts = noc_.group_conflicts();
    result.noc_config = noc_.config();
  }
  return result;
}

}  // namespace issr::system
