// The Snitch cluster (Fig. 3): eight worker core complexes on a 32-bank
// 256 KiB TCDM, a duplex 512-bit DMA engine to main memory, and a
// data-movement core (DMCC) coordinating transfers. Worker instruction
// fetch is ideal (shared L1 I$ modeled as always hitting). The DMCC runs
// as a cycle-stepped C++ controller issuing the same DMA commands and TCDM
// flag writes its software would (DESIGN.md §5, substitution 4). A System
// (system/system.hpp) builds, owns and runs every cluster, a single one
// included, and lends it the main memory its DMA reaches.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/barrier.hpp"
#include "common/arena.hpp"
#include "core/cc.hpp"
#include "core/engine.hpp"
#include "isa/program.hpp"
#include "mem/dma.hpp"
#include "mem/main_mem.hpp"
#include "mem/tcdm.hpp"
#include "sim/fault.hpp"
#include "trace/stall.hpp"
#include "trace/trace.hpp"

namespace issr::core {
class CompiledProgram;
}  // namespace issr::core

namespace issr::cluster {

struct ClusterConfig {
  unsigned num_workers = 8;
  mem::TcdmConfig tcdm;
  core::CcParams cc;
};

/// Per-run cluster statistics.
struct ClusterResult {
  cycle_t cycles = 0;
  /// Inert (always 0): kept only for perfbench, see ROADMAP item 6.
  cycle_t ff_skipped = 0;
  /// True iff the run ended before the cluster was done (cycle budget or
  /// no-progress watchdog); the statistics then describe a truncated run.
  /// `fault` classifies the reason — the driver turns it into a failed
  /// sweep row instead of crashing.
  bool aborted = false;
  /// Why the run did not complete (code kNone when it did), with per-
  /// worker PCs, barrier state, and the stall snapshot at detection.
  sim::Fault fault;
  std::vector<core::SnitchStats> core;
  std::vector<core::FpssStats> fpss;
  /// Per-worker streamer lane statistics (ssr::Streamer lanes 0/1):
  /// element throughput, index-word fetches, port-mux conflicts. Feeds
  /// the lane-occupancy metrics (metrics/harvest.hpp).
  std::vector<ssr::LaneStats> ssr_lanes;
  std::vector<ssr::LaneStats> issr_lanes;
  /// Per-worker stall attribution; each worker's buckets sum to `cycles`.
  std::vector<trace::StallBuckets> stalls;
  mem::TcdmStats tcdm;
  mem::DmaStats dma;
  std::uint64_t main_mem_read = 0;
  std::uint64_t main_mem_written = 0;

  /// Cluster-wide attribution: sums to cycles x worker count.
  trace::StallBuckets total_stalls() const {
    trace::StallBuckets t;
    for (const auto& s : stalls) t += s;
    return t;
  }

  /// Aggregate FPU utilization over all worker FPUs (Fig. 4c/4d input).
  double fpu_util() const {
    if (cycles == 0 || fpss.empty()) return 0.0;
    std::uint64_t compute = 0;
    for (const auto& f : fpss) compute += f.fp_compute;
    return static_cast<double>(compute) /
           (static_cast<double>(cycles) * static_cast<double>(fpss.size()));
  }
  std::uint64_t total_fmadd() const {
    std::uint64_t n = 0;
    for (const auto& f : fpss) n += f.fmadd;
    return n;
  }
  /// Multiply-accumulate count: fmadds plus the fmul products the CsrMV
  /// kernels use for the first elements of each row (one MAC per nonzero).
  std::uint64_t total_macs() const {
    std::uint64_t n = 0;
    for (const auto& f : fpss) n += f.fmadd + f.fmul;
    return n;
  }
};

class Cluster {
 public:
  /// A controller is ticked once per cycle after the memories; it models
  /// the DMCC. It may inspect/drive the DMA and read/write TCDM words.
  using Controller = std::function<void(Cluster&, cycle_t)>;

  /// Compiled translations keyed by worker program object. A System lends
  /// one to every cluster it builds, so a program object that several
  /// clusters run is translated once.
  using CompiledCache =
      std::unordered_map<const isa::Program*,
                         std::shared_ptr<const core::CompiledProgram>>;

  /// The cluster's DMA reaches `main`, which the owning System holds and
  /// may wire behind an Interconnect; `arena`, when non-null, backs the
  /// TCDM pages instead of the heap (observational only; see
  /// common/arena.hpp). Both must outlive the cluster. `worker_programs`
  /// holds one program per worker. Workers handed the same program object
  /// share it and one translation of it (core/compile.hpp), looked up in
  /// (and added to) `compiled_cache`.
  Cluster(const ClusterConfig& config, mem::MainMemory& main, Arena* arena,
          std::vector<std::shared_ptr<const isa::Program>> worker_programs,
          CompiledCache& compiled_cache);

  unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }
  core::CoreComplex& worker(unsigned i) { return *workers_.at(i); }
  /// Worker `i`'s program and its translation.
  const isa::Program& program(unsigned i) const { return *programs_.at(i); }
  const core::CompiledProgram* compiled(unsigned i) const {
    return compiled_.at(i).get();
  }

  mem::Tcdm& tcdm() { return *tcdm_; }
  mem::MainMemory& main_mem() { return *main_; }
  mem::Dma& dma() { return *dma_; }
  HwBarrier& barrier() { return barrier_; }

  void set_controller(Controller c) { controller_ = std::move(c); }

  /// The controller must mark itself finished (all transfers issued and
  /// completed) before the run can end. Defaults to true when no
  /// controller is installed.
  void set_controller_done(bool done) { controller_done_ = done; }

  /// Watchdog hint: a controller that is provably inert until cycle `c`
  /// (e.g. parked on the inter-cluster barrier with no DMA in flight)
  /// declares it from inside its tick, and next_event reports it. Reset
  /// to "hot" (now) before every controller invocation, so a stale hint
  /// can never outlive one tick. kCycleNever means "inert until another
  /// cluster acts on me": a System whose every cluster reports it is
  /// deadlocked, and the no-progress watchdog stops the run.
  void set_controller_idle_until(cycle_t c) { controller_idle_until_ = c; }

  /// True iff all workers are quiescent, the DMA is drained, and the
  /// controller has finished.
  bool done(cycle_t now) const;

  /// Attach cycle-resolved tracing: per-worker tracks ("cc<N>"), one TCDM
  /// track per bank, DMA channel tracks, and the barrier release track.
  /// `prefix` namespaces the track processes (a System passes "c<k>." so
  /// every cluster gets its own track group). Zero overhead when never
  /// called.
  void attach_trace(trace::TraceSink& sink, const std::string& prefix = "");

  // --- Per-cycle interface ---------------------------------------------------
  // System::run drives every cluster's through the shared engine, all of
  // them in one system cycle (system/system.hpp).

  /// Advance one cycle. Order: DMA claims banks for this cycle, TCDM
  /// arbitrates (skipping claimed banks), then the controller and workers
  /// issue new traffic. Flattened: the DMA, TCDM and worker ticks (core,
  /// FPSS, lanes, port hubs) are small and call-bound, and every cluster
  /// cycle — a System's included — runs through here.
  [[gnu::flatten]] void tick(cycle_t now);

  /// Watchdog horizon: earliest future cycle this cluster's tick can
  /// differ from the one just performed. Returns `now` while the DMA is
  /// transferring or an active controller has not declared itself idle
  /// (set_controller_idle_until); a pending NoC-delayed DMA completion
  /// bounds the horizon by its maturity cycle.
  cycle_t next_event(cycle_t now) const;

  /// Post-run collection: close worker stall timelines, drain pending
  /// TCDM-port stores and final DMA beats, and gather every statistic
  /// into a result (asserting each worker's stall buckets decompose
  /// `now`).
  ClusterResult harvest(cycle_t now, bool aborted);

  /// Classify a stopped run into a Fault with the cluster's diagnostic
  /// snapshot (per-worker PCs, barrier occupancy, DMA state). `cluster_id`
  /// labels the HartStates when a System owns several clusters. Also
  /// emits one instant on the cluster's "watchdog" trace track when
  /// tracing is attached.
  sim::Fault classify_stop(core::EngineStop stop, cycle_t now,
                           cycle_t last_horizon, std::uint32_t cluster_id);

 private:
  ClusterConfig config_;
  std::vector<std::shared_ptr<const isa::Program>> programs_;
  /// Per worker, the shared translation of its program object.
  std::vector<std::shared_ptr<const core::CompiledProgram>> compiled_;
  std::unique_ptr<mem::Tcdm> tcdm_;
  mem::MainMemory* main_;  ///< the owning System's
  std::unique_ptr<mem::Dma> dma_;
  HwBarrier barrier_;
  std::vector<std::unique_ptr<core::CoreComplex>> workers_;
  Controller controller_;
  bool controller_done_ = true;
  cycle_t controller_idle_until_ = 0;
  /// Sink/prefix from attach_trace (null when untraced): classify_stop
  /// emits a "watchdog" track instant when a run ends in a Fault.
  trace::TraceSink* trace_sink_ = nullptr;
  std::string trace_prefix_;
};

}  // namespace issr::cluster
