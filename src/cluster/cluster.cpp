#include "cluster/cluster.hpp"

#include <cassert>
#include <cstdio>
#include <string>

#include "common/log.hpp"
#include "core/compile.hpp"

namespace issr::cluster {

Cluster::Cluster(
    const ClusterConfig& config,
    std::vector<std::shared_ptr<const isa::Program>> worker_programs,
    CompiledCache* compiled_cache)
    : config_(config),
      programs_(std::move(worker_programs)),
      main_(config.shared_main != nullptr ? config.shared_main : &own_main_),
      barrier_(config.num_workers) {
  assert(programs_.size() == config_.num_workers);
  // Two TCDM master ports per worker CC: shared (core+FPU+SSR) and ISSR.
  tcdm_ = std::make_unique<mem::Tcdm>(config_.tcdm, 2 * config_.num_workers);
  if (config_.arena != nullptr) {
    tcdm_->store().set_arena(config_.arena);
    // A shared main memory's pages belong to its owner (the System wires
    // the arena there before any cluster exists); only the private one
    // is this cluster's to back.
    if (config_.shared_main == nullptr) own_main_.store().set_arena(config_.arena);
  }
  dma_ = std::make_unique<mem::Dma>(*tcdm_, *main_);

  CompiledCache own_cache;
  CompiledCache& cache =
      compiled_cache != nullptr ? *compiled_cache : own_cache;
  for (unsigned w = 0; w < config_.num_workers; ++w) {
    core::CcParams cc = config_.cc;
    cc.core.hartid = w;
    assert(!cc.streamer.issr_lane.dedicated_idx_port &&
           "cluster model provides two TCDM ports per CC");
    // A translation is immutable, so every worker running the same
    // program object shares one. (The fused executor stays off here: it
    // needs the ideal two-port memory, and TCDM responses interleave with
    // other workers' traffic.)
    auto& cp = cache[programs_[w].get()];
    if (!cp) {
      cp = std::make_shared<const core::CompiledProgram>(*programs_[w]);
    }
    compiled_.push_back(cp);
    workers_.push_back(std::make_unique<core::CoreComplex>(
        cc, *cp, tcdm_->port(2 * w), tcdm_->port(2 * w + 1)));
    workers_.back()->core().set_barrier_hook(
        [this](std::uint32_t hart) { return barrier_.poll(hart); });
  }
}

bool Cluster::done(cycle_t now) const {
  if (!controller_done_) return false;
  for (const auto& w : workers_) {
    if (!w->quiescent(now)) return false;
  }
  return !dma_->busy();
}

void Cluster::attach_trace(trace::TraceSink& sink, const std::string& prefix) {
  for (unsigned w = 0; w < num_workers(); ++w) {
    workers_[w]->attach_trace(sink, prefix + "cc" + std::to_string(w));
  }
  tcdm_->attach_trace(sink, prefix);
  dma_->attach_trace(sink, prefix);
  barrier_.tracer().attach(sink, sink.add_track(prefix + "cluster", "barrier"));
  trace_sink_ = &sink;
  trace_prefix_ = prefix;
}

void Cluster::tick(cycle_t now) {
  // Order: DMA claims banks for this cycle, TCDM arbitrates (skipping
  // claimed banks), then the controller and workers issue new traffic.
  barrier_.begin_cycle(now);
  dma_->tick(now);
  tcdm_->tick(now);
  // Default: an active controller keeps the cluster hot every cycle. A
  // controller parked on an external event (inter-cluster barrier) may
  // overwrite this with the cycle it next needs to run.
  controller_idle_until_ = now;
  if (controller_) controller_(*this, now);
  // Feed this cycle's NoC arbitration outcome into each worker's stall
  // accountant before it classifies the cycle (observational only).
  const bool noc_denied = dma_->noc_denied_this_cycle();
  for (auto& w : workers_) {
    w->set_noc_stalled(noc_denied);
    w->tick(now);
  }
}

cycle_t Cluster::next_event(cycle_t now) const {
  // A transferring DMA moves (or is denied) beats every cycle: never
  // skippable. A DMA that is merely waiting out a completion's NoC
  // latency is inert until the maturity cycle, which bounds the horizon
  // below — skipping *past* it would make the controller observe the
  // completion late (the bug this hook's contract exists to prevent).
  if (dma_->transferring()) return now;
  cycle_t horizon = kCycleNever;
  if (controller_ && !controller_done_) {
    if (controller_idle_until_ <= now) return now;
    horizon = controller_idle_until_;
  }
  const cycle_t de = dma_->next_completion();
  if (de < horizon) horizon = de;
  const cycle_t te = tcdm_->next_event();
  if (te < horizon) horizon = te;
  for (const auto& w : workers_) {
    const cycle_t we = w->next_event(now);
    if (we < horizon) horizon = we;
    if (horizon <= now) break;
  }
  return horizon;
}

cycle_t Cluster::next_seam(cycle_t now) const {
  // A transferring DMA requests NoC beats (and moves shared-main data)
  // every cycle it is ticked.
  if (dma_->transferring()) return now;
  cycle_t seam = kCycleNever;
  // A pending completion promotes the next queued transfer to the moving
  // state at its maturity cycle — beats may flow that same tick — and is
  // also the event behind every controller-side buffer/capacity change,
  // so probes may treat "blocked on a local DMA event" as kCycleNever.
  const cycle_t dc = dma_->next_completion();
  if (dc < seam) seam = dc;
  if (controller_ && !controller_done_) {
    const cycle_t cs =
        controller_seam_probe_ ? controller_seam_probe_(now) : now;
    // kCycleHold beats every local bound: an arrived controller polls the
    // barrier each tick, so it must either park (nothing local pending) or
    // tick only in coordinated cycles (a DMA completion is still maturing
    // — letting the completion bound win would free-run those polls
    // against frozen barrier state and miss a release another cluster
    // decides in the meantime).
    if (cs == kCycleHold) return dc == kCycleNever ? kCycleHold : now;
    if (cs < seam) seam = cs;
  }
  return seam < now ? now : seam;
}

void Cluster::visit_wait_counters(const core::CounterVisitor& f) {
  for (auto& w : workers_) w->visit_wait_counters(f);
}

void Cluster::resync_account() {
  for (auto& w : workers_) w->resync_account();
}

ClusterResult Cluster::harvest(cycle_t now, cycle_t ff_skipped, bool aborted) {
  ClusterResult result;
  result.ff_skipped = ff_skipped;
  result.aborted = aborted;
  if (aborted) {
    ISSR_ERROR("Cluster::run aborted at cycle %llu",
               static_cast<unsigned long long>(now));
    for (unsigned w = 0; w < num_workers(); ++w) {
      ISSR_ERROR("  worker %u: pc=0x%llx halted=%d", w,
                 static_cast<unsigned long long>(workers_[w]->core().pc()),
                 workers_[w]->halted() ? 1 : 0);
    }
  }
  for (auto& w : workers_) w->close_trace(now);

  // Drain pending stores at the TCDM ports and any final DMA beats.
  for (cycle_t d = 0; d < 8; ++d) {
    dma_->tick(now + d);
    tcdm_->tick(now + d);
  }

  result.cycles = now;
  for (const auto& w : workers_) {
    result.core.push_back(w->core().stats());
    result.fpss.push_back(w->fpss().stats());
    result.ssr_lanes.push_back(
        w->streamer().lane(ssr::Streamer::kSsrLane).stats());
    result.issr_lanes.push_back(
        w->streamer().lane(ssr::Streamer::kIssrLane).stats());
    result.stalls.push_back(w->stall_buckets());
    assert(result.stalls.back().total() == result.cycles &&
           "each worker's stall buckets must decompose the cycle count");
  }
  result.tcdm = tcdm_->stats();
  result.dma = dma_->stats();
  result.main_mem_read = main_->bytes_read();
  result.main_mem_written = main_->bytes_written();
  return result;
}

ClusterResult Cluster::run(cycle_t max_cycles) {
  // Idle-cycle fast-forward (run_engine in core/engine.hpp): only
  // engages when the DMA is drained and the controller is done, i.e.
  // every remaining per-cycle effect lives in the worker CCs.
  struct Units {
    Cluster& c;
    void tick(cycle_t now) { c.tick(now); }
    bool done(cycle_t now) const { return c.done(now); }
    cycle_t next_event(cycle_t now) const { return c.next_event(now); }
    void visit_counters(const core::CounterVisitor& f) {
      c.visit_wait_counters(f);
    }
    void after_replay() { c.resync_account(); }
  };
  const core::EngineRun er =
      core::run_engine(Units{*this}, max_cycles, config_.fast_forward);
  ClusterResult result =
      harvest(er.cycles, er.skipped, er.stop != core::EngineStop::kDone);
  if (er.stop != core::EngineStop::kDone) {
    result.fault = classify_stop(er.stop, er.cycles, er.last_horizon);
  }
  return result;
}

sim::Fault Cluster::classify_stop(core::EngineStop stop, cycle_t now,
                                  cycle_t last_horizon,
                                  std::uint32_t cluster_id) {
  sim::Fault f;
  if (stop == core::EngineStop::kDone) return f;
  const unsigned parked = barrier_.waiting();
  unsigned at_csr = 0;
  for (const auto& w : workers_) {
    if (w->core().in_barrier_wait()) ++at_csr;
  }
  if (stop == core::EngineStop::kCycleLimit) {
    f.code = sim::FaultCode::kCycleLimit;
    f.message = "cycle budget exhausted before the cluster was done";
  } else if (parked > 0 || at_csr > 0) {
    f.code = sim::FaultCode::kBarrierDeadlock;
    f.message = "workers parked at a barrier that can never release";
  } else {
    f.code = sim::FaultCode::kWatchdogNoProgress;
    f.message = "no unit can make progress without an external event";
  }
  f.cycle = now;
  f.last_next_event = last_horizon;
  for (unsigned w = 0; w < num_workers(); ++w) {
    f.harts.push_back(sim::HartState{cluster_id, w, workers_[w]->core().pc(),
                                     workers_[w]->halted()});
  }
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "hw_barrier: %u/%u arrived (%u at CSR), gen %llu; "
                  "dma: %s, controller %s",
                  parked, num_workers(), at_csr,
                  static_cast<unsigned long long>(barrier_.generation()),
                  dma_->busy() ? "busy" : "idle",
                  controller_done_ ? "done" : "active");
    f.barrier = buf;
  }
  for (const auto& w : workers_) f.stalls += w->stall_buckets();
  if (trace_sink_ != nullptr) {
    trace::Tracer watchdog;
    watchdog.attach(*trace_sink_, trace_sink_->add_track(
                                      trace_prefix_ + "cluster", "watchdog"));
    watchdog.instant(now, sim::to_string(f.code), parked);
  }
  return f;
}

}  // namespace issr::cluster
