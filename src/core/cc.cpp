#include "core/cc.hpp"

#include <cassert>

namespace issr::core {

CoreComplex::CoreComplex(const CcParams& params,
                         const CompiledProgram& program,
                         mem::MemPort& shared_port, mem::MemPort& issr_port,
                         mem::MemPort* issr_idx_port)
    : shared_hub_(shared_port), issr_hub_(issr_port) {
  // Shared-port clients, in service order: SSR lane, FP LSU, core LSU.
  ssr::PortClient ssr_client = shared_hub_.add_client();
  ssr::PortClient fp_lsu_client = shared_hub_.add_client();
  ssr::PortClient core_lsu_client = shared_hub_.add_client();
  ssr::PortClient issr_client = issr_hub_.add_client();

  ssr::PortClient issr_idx_client;
  if (params.streamer.issr_lane.dedicated_idx_port) {
    assert(issr_idx_port != nullptr &&
           "dedicated index port requested but no port supplied");
    issr_idx_hub_ = std::make_unique<ssr::PortHub>(*issr_idx_port);
    issr_idx_client = issr_idx_hub_->add_client();
  }

  streamer_ = std::make_unique<ssr::Streamer>(params.streamer, ssr_client,
                                              issr_client, issr_idx_client);
  fpss_ = std::make_unique<Fpss>(params.fpss, *streamer_, fp_lsu_client,
                                 &program);
  core_ = std::make_unique<SnitchCore>(params.core, program, *fpss_,
                                       *streamer_, core_lsu_client);
  ssr_lane_ = &streamer_->lane(ssr::Streamer::kSsrLane);
  issr_lane_ = &streamer_->lane(ssr::Streamer::kIssrLane);
}

void CoreComplex::tick(cycle_t now) {
  tick_hubs();
  streamer_->begin_cycle(now);
  // Tick order realizes the shared-port arbitration priority: the core's
  // sporadic, latency-critical requests win over the FP LSU, which wins
  // over the SSR data mover's continuous (FIFO-buffered, latency-tolerant)
  // stream traffic.
  core_->tick(now);
  fpss_->tick(now);
  streamer_->tick(now);
  account(now);
}

CoreComplex::StatSnap CoreComplex::sample() const {
  const FpssStats& fs = fpss_->stats();
  const SnitchStats& cs = core_->stats();
  StatSnap s;
  s.fp_compute = fs.fp_compute;
  s.fpss_issued = fs.issued;
  s.core_issued = cs.issued;
  s.stall_stream = fs.stall_stream;
  s.stall_sync = cs.stall_sync;
  s.stall_barrier = cs.stall_barrier;
  s.port_stalls = shared_hub_.port().stats().stall_cycles +
                  issr_hub_.port().stats().stall_cycles +
                  (issr_idx_hub_ ? issr_idx_hub_->port().stats().stall_cycles
                                 : 0);
  s.ssr_starved = ssr_lane_->stats().reg_starved_cycles;
  s.issr_starved = issr_lane_->stats().reg_starved_cycles;
  return s;
}

void CoreComplex::account(cycle_t now) {
  const StatSnap s = sample();

  trace::CycleObservation o;
  o.fp_compute = s.fp_compute != snap_.fp_compute;
  o.issued = s.fpss_issued != snap_.fpss_issued ||
             s.core_issued != snap_.core_issued;
  o.barrier_stall = s.stall_barrier != snap_.stall_barrier;
  o.noc_stalled = noc_stalled_;
  o.stream_stall = s.stall_stream != snap_.stall_stream;
  o.port_conflict = s.port_stalls != snap_.port_stalls;
  o.sync_stall = s.stall_sync != snap_.stall_sync;
  o.halted = core_->halted();
  if (o.stream_stall) {
    // Attribute the starvation to the lane the FPU failed to pop from,
    // using the cause it latched at that moment (the streamer has ticked
    // since, so its live state no longer explains the empty FIFO).
    // Write-side stream stalls (FIFO full) leave both starvation counters
    // untouched and classify as plain stream backpressure.
    const ssr::Lane* lane = nullptr;
    if (s.ssr_starved != snap_.ssr_starved) {
      lane = ssr_lane_;
    } else if (s.issr_starved != snap_.issr_starved) {
      lane = issr_lane_;
    }
    o.idx_serializer =
        lane &&
        lane->last_starve_cause() == ssr::Lane::StarveCause::kSerializer;
  }
  snap_ = s;

  const trace::Bucket b = trace::classify(o);
  ++stalls_[b];

  if (stall_trace_.attached() &&
      (b != cur_bucket_ || !stall_slice_open_)) {
    if (stall_slice_open_) stall_trace_.end(now, trace::to_string(cur_bucket_));
    stall_trace_.begin(now, trace::to_string(b));
    cur_bucket_ = b;
    stall_slice_open_ = true;
  }
}

void CoreComplex::attach_trace(trace::TraceSink& sink,
                               const std::string& name) {
  core_->tracer().attach(sink, sink.add_track(name, "core"));
  fpss_->tracer().attach(sink, sink.add_track(name, "fpss"));
  streamer_->lane(ssr::Streamer::kSsrLane)
      .tracer()
      .attach(sink, sink.add_track(name, "ssr"));
  streamer_->lane(ssr::Streamer::kIssrLane)
      .tracer()
      .attach(sink, sink.add_track(name, "issr"));
  stall_trace_.attach(sink, sink.add_track(name, "stall"));
}

void CoreComplex::close_trace(cycle_t now) {
  if (stall_slice_open_) {
    stall_trace_.end(now, trace::to_string(cur_bucket_));
    stall_slice_open_ = false;
  }
}

}  // namespace issr::core
