// Snitch core complex (CC, Fig. 3): integer core + FPU subsystem + ISSR
// streamer, wired to two memory ports with the paper's topology (§II-C):
//  - port 0 (shared): core LSU + FP LSU + SSR data mover — the SSR lane
//    is served first each cycle, then the FP LSU, then the core;
//  - port 1 (exclusive): the ISSR lane's multiplexed index/data traffic.
// An optional third port serves the dedicated-index-port ablation.
#pragma once

#include <memory>
#include <string>

#include "core/fpss.hpp"
#include "core/snitch.hpp"
#include "isa/program.hpp"
#include "mem/port.hpp"
#include "ssr/port_hub.hpp"
#include "ssr/streamer.hpp"
#include "trace/stall.hpp"
#include "trace/trace.hpp"

namespace issr::core {

struct CcParams {
  SnitchParams core;
  FpssParams fpss;
  ssr::StreamerParams streamer;
};

class CompiledProgram;

class CoreComplex {
 public:
  /// `program` is the translation of the program the core runs
  /// (core/compile.hpp); it must outlive the CC. `issr_idx_port` must be
  /// non-null iff the streamer params request a dedicated index port.
  CoreComplex(const CcParams& params, const CompiledProgram& program,
              mem::MemPort& shared_port, mem::MemPort& issr_port,
              mem::MemPort* issr_idx_port = nullptr);

  SnitchCore& core() { return *core_; }
  const SnitchCore& core() const { return *core_; }
  Fpss& fpss() { return *fpss_; }
  const Fpss& fpss() const { return *fpss_; }
  ssr::Streamer& streamer() { return *streamer_; }
  const ssr::Streamer& streamer() const { return *streamer_; }

  bool halted() const { return core_->halted(); }
  /// True iff the CC has fully finished: core halted, FPU subsystem
  /// drained, and no streamer job still active.
  bool quiescent(cycle_t now) const {
    return halted() && fpss_->idle(now) && !streamer_->busy();
  }

  void tick(cycle_t now);

  /// The hub phase of tick(), exposed for the fused executor: fused
  /// cycles run it too (right after the memory tick), so core/FP-LSU load
  /// responses and seam-materialized lane requests route at the exact
  /// per-cycle point.
  void tick_hubs() {
    shared_hub_.tick();
    issr_hub_.tick();
    if (issr_idx_hub_) issr_idx_hub_->tick();
  }

  /// Routed-but-unpopped responses on any hub (fused parked-span entry
  /// check; mirrors the next_event() hub term).
  bool hubs_queued() const {
    return shared_hub_.has_queued() || issr_hub_.has_queued() ||
           (issr_idx_hub_ && issr_idx_hub_->has_queued());
  }

  /// Cluster-environment input to stall attribution: set before tick()
  /// when this CC's cluster DMA was denied an interconnect beat this
  /// cycle. Purely observational (classification only); never set on the
  /// single-CC / single-cluster paths.
  void set_noc_stalled(bool v) { noc_stalled_ = v; }

  // --- Fast-forward hooks --------------------------------------------------
  /// Earliest future cycle at which any unit of this CC can behave
  /// differently than it did in the tick just performed (core, FPU
  /// subsystem, streamer lanes, undrained hub responses). `now` means the
  /// CC is actively progressing; kCycleNever means it is blocked on an
  /// external event (memory response, barrier release).
  cycle_t next_event(cycle_t now) const {
    if (shared_hub_.has_queued() || issr_hub_.has_queued() ||
        (issr_idx_hub_ && issr_idx_hub_->has_queued())) {
      return now;
    }
    cycle_t e = core_->next_event(now);
    const cycle_t fe = fpss_->next_event(now);
    if (fe < e) e = fe;
    const cycle_t se = streamer_->next_event(now);
    if (se < e) e = se;
    return e;
  }

  /// Apply `f` to every counter that can advance during a pure-wait
  /// stretch (the engine snapshots these around one wait tick and replays
  /// the delta over the skipped span). Port/TCDM/DMA counters are absent
  /// by design: they only move in cycles the horizon already refuses to
  /// skip.
  template <typename F>
  void visit_wait_counters(F&& f) {
    core_->mutable_stats().for_each_counter(f);
    fpss_->mutable_stats().for_each_counter(f);
    streamer_->lane(ssr::Streamer::kSsrLane).mutable_stats().for_each_counter(f);
    streamer_->lane(ssr::Streamer::kIssrLane)
        .mutable_stats()
        .for_each_counter(f);
    for (auto& c : stalls_.counts) f(c);
  }

  /// Re-prime the stall accountant's counter snapshot from live values
  /// after a bulk replay (the skipped cycles all carried identical
  /// deltas, so the post-skip snapshot is exactly the live state).
  void resync_account() { snap_ = sample(); }

  // --- Fused-executor hook -------------------------------------------------
  /// Credit one fused cycle's stall bucket. The fused executor classifies
  /// from its own pre/post counter deltas (a strict subset of the
  /// observations account() folds — the others are statically impossible
  /// in the fused steady state) and leaves snap_ stale; it must call
  /// resync_account() before the next unfused tick. Fused cycles
  /// require no attached trace sink, so no stall slice bookkeeping.
  void credit_fused_cycle(trace::Bucket b) { ++stalls_[b]; }

  // --- Telemetry -----------------------------------------------------------
  /// Per-cycle stall attribution (always accounted; exactly one bucket per
  /// tick, so stall_buckets().total() equals the tick count).
  const trace::StallBuckets& stall_buckets() const { return stalls_; }

  /// Register this CC's timeline tracks ("core", "fpss", "ssr", "issr",
  /// "stall") under process `name` and attach all component tracers.
  void attach_trace(trace::TraceSink& sink, const std::string& name);

  /// Close the stall timeline's open slice (call once after the last tick).
  void close_trace(cycle_t now);

 private:
  /// Statistic counters sampled after the previous tick; the per-cycle
  /// deltas are what account() classifies.
  struct StatSnap {
    std::uint64_t fp_compute = 0;
    std::uint64_t fpss_issued = 0;
    std::uint64_t core_issued = 0;
    std::uint64_t stall_stream = 0;
    std::uint64_t stall_sync = 0;
    std::uint64_t stall_barrier = 0;
    std::uint64_t port_stalls = 0;
    std::uint64_t ssr_starved = 0;
    std::uint64_t issr_starved = 0;
  };

  /// Sample the counters account() classifies (cached component/port
  /// pointers: this runs every cycle).
  StatSnap sample() const;

  /// Classify the cycle that just ticked and update buckets + timeline.
  void account(cycle_t now);

  ssr::PortHub shared_hub_;
  ssr::PortHub issr_hub_;
  std::unique_ptr<ssr::PortHub> issr_idx_hub_;

  std::unique_ptr<ssr::Streamer> streamer_;
  std::unique_ptr<Fpss> fpss_;
  std::unique_ptr<SnitchCore> core_;

  // Cached lane pointers for the per-cycle accounting path (skips the
  // bounds-checked lane() lookups).
  ssr::Lane* ssr_lane_ = nullptr;
  ssr::Lane* issr_lane_ = nullptr;

  StatSnap snap_;
  bool noc_stalled_ = false;
  trace::StallBuckets stalls_;
  trace::Tracer stall_trace_;
  trace::Bucket cur_bucket_ = trace::Bucket::kOther;
  bool stall_slice_open_ = false;
};

}  // namespace issr::core
