#include "system/csrmv_sys.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace issr::system {

using cluster::McTilePlan;
using sparse::IndexWidth;

namespace {

/// The static DMCC controller of one cluster's shard. Per column phase it
/// loads the dense block, streams the tiles double-buffered (tile loads,
/// the TCDM generation-flag protocol, y write-back), and once every tile
/// has written back advances: with a fabric it arrives at the
/// inter-cluster barrier and starts the next phase on release; without one
/// it starts the next phase, or marks itself done after the last, in the
/// same cycle. A cluster with an empty shard in a System with a fabric
/// loads nothing and only arrives, once per phase. After the last phase
/// every invocation is a no-op.
class ShardController {
 public:
  /// `bar` is the System's inter-cluster barrier (null without a fabric),
  /// at which this controller arrives as cluster `idx`.
  ShardController(const McTilePlan& plan, const cluster::TileOperands& ops,
                  unsigned workers, SysBarrier* bar, unsigned idx)
      : plan_(plan), ops_(ops), workers_(workers), bar_(bar), idx_(idx) {}

  void operator()(Cluster& cl, cycle_t now);

 private:
  enum class BufState { kIdle, kLoading, kReady, kWritingBack };

  std::uint64_t gen(std::size_t tile) const {
    return static_cast<std::uint64_t>(phase_) * plan_.tiles.size() + tile;
  }
  void start_phase(Cluster& cl);
  void start_tile_load(Cluster& cl, std::size_t tile);
  void stream_tiles(Cluster& cl);
  /// Past a completed phase: start the next one, or mark the controller
  /// done after the last (then false).
  bool next_phase(Cluster& cl);

  const McTilePlan& plan_;
  cluster::TileOperands ops_;
  unsigned workers_;
  SysBarrier* bar_;
  unsigned idx_;

  bool started_ = false;
  bool arrived_ = false;
  bool passed_ = false;
  std::uint32_t phase_ = 0;
  std::uint64_t queued_in_ = 0;   ///< inbound jobs queued so far
  std::uint64_t queued_out_ = 0;  ///< outbound jobs queued so far
  BufState state_[2] = {BufState::kIdle, BufState::kIdle};
  std::size_t buf_tile_[2] = {0, 0};
  std::uint64_t load_marker_[2] = {0, 0};
  std::uint64_t wb_marker_[2] = {0, 0};
  std::size_t next_tile_ = 0;
  std::size_t tiles_done_ = 0;
};

void ShardController::operator()(Cluster& cl, cycle_t now) {
  if (passed_) return;
  if (arrived_) {
    if (!bar_->released(idx_, now)) {
      // Parked on the barrier: declare the wake-up cycle (kCycleNever
      // while the release is undecided) for the no-progress watchdog.
      cl.set_controller_idle_until(bar_->release_hint(idx_));
      return;
    }
    arrived_ = false;
    // An empty shard's next phase is complete at once: arrive again.
    if (!next_phase(cl) || !plan_.tiles.empty()) return;
  } else {
    if (!started_) {
      started_ = true;
      start_phase(cl);
    }
    stream_tiles(cl);
    if (tiles_done_ < plan_.tiles.size()) return;
    if (bar_ == nullptr) {
      // No fabric, no barrier to wait for: advance in this cycle.
      next_phase(cl);
      return;
    }
  }
  arrived_ = true;
  bar_->arrive(idx_, now);
}

bool ShardController::next_phase(Cluster& cl) {
  if (++phase_ == plan_.num_phases()) {
    passed_ = true;
    cl.set_controller_done(true);
    return false;
  }
  start_phase(cl);
  return true;
}

void ShardController::start_phase(Cluster& cl) {
  next_tile_ = 0;
  tiles_done_ = 0;
  if (plan_.tiles.empty() && bar_ != nullptr) return;
  // The dense block rides the inbound channel ahead of the tile loads, so
  // no tile flag can publish before it has landed (for CsrMV: the x
  // transfer is not overlapped with compute).
  cluster::dma_load_block(cl.dma(), plan_, ops_, phase_);
  queued_in_ += 1;
  if (next_tile_ < plan_.tiles.size()) start_tile_load(cl, next_tile_++);
  if (next_tile_ < plan_.tiles.size()) start_tile_load(cl, next_tile_++);
}

void ShardController::start_tile_load(Cluster& cl, std::size_t tile) {
  const unsigned b = static_cast<unsigned>(gen(tile) % 2);
  cluster::dma_load_tile(cl.dma(), plan_, ops_, b, plan_.tiles[tile]);
  load_marker_[b] = queued_in_ += 3;
  state_[b] = BufState::kLoading;
  buf_tile_[b] = tile;
}

void ShardController::stream_tiles(Cluster& cl) {
  auto& dma = cl.dma();
  auto& store = cl.tcdm().store();
  for (unsigned b = 0; b < 2; ++b) {
    switch (state_[b]) {
      case BufState::kLoading:
        if (dma.completed_in() >= load_marker_[b]) {
          // Publish the tile generation: workers poll for gen + 1.
          store.store_u64(cluster::tile_flag_addr(plan_, b),
                          gen(buf_tile_[b]) + 1);
          state_[b] = BufState::kReady;
        }
        break;
      case BufState::kReady: {
        // All workers done with this tile?
        const std::uint64_t done = gen(buf_tile_[b]) + 1;
        bool all_done = true;
        for (unsigned w = 0; w < workers_; ++w) {
          if (store.load_u64(cluster::done_flag_addr(plan_, w)) < done) {
            all_done = false;
            break;
          }
        }
        if (all_done) {
          cluster::dma_write_back(dma, plan_, ops_, b,
                                  plan_.tiles[buf_tile_[b]], phase_);
          wb_marker_[b] = ++queued_out_;
          state_[b] = BufState::kWritingBack;
        }
        break;
      }
      case BufState::kWritingBack:
        if (dma.completed_out() >= wb_marker_[b]) {
          // Generations alternate buffers, so the next tile lands in b.
          ++tiles_done_;
          state_[b] = BufState::kIdle;
          if (next_tile_ < plan_.tiles.size()) {
            start_tile_load(cl, next_tile_++);
          }
        }
        break;
      case BufState::kIdle:
        break;
    }
  }
}

std::uint64_t total_cost(const sparse::CsrMatrix& a) {
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    total += (a.ptr()[r + 1] - a.ptr()[r]) + cluster::kRowCostOverhead;
  }
  return total;
}

}  // namespace

std::vector<std::uint32_t> partition_rows_balanced(const sparse::CsrMatrix& a,
                                                   unsigned n) {
  assert(n >= 1);
  const std::uint32_t rows = a.rows();
  // Total cost and the greedy sweep share one accumulator type; the
  // boundaries land where each shard's cost first reaches its target
  // (total * (c+1) / n), which equalizes cost to within one row.
  const std::uint64_t total = total_cost(a);
  std::vector<std::uint32_t> out(n + 1, rows);
  out[0] = 0;
  std::uint64_t acc = 0;
  std::uint32_t r = 0;
  for (unsigned c = 0; c + 1 < n; ++c) {
    const std::uint64_t target = total * (c + 1) / n;
    while (r < rows && acc < target) {
      acc += (a.ptr()[r + 1] - a.ptr()[r]) + cluster::kRowCostOverhead;
      ++r;
    }
    out[c + 1] = r;
  }
  return out;
}

TileRun run_tile_system(const sparse::CsrMatrix& a, const SystemConfig& cfg,
                        const TileKernel& k, bool steal, double* y) {
  const unsigned n = cfg.num_clusters;
  const unsigned workers = cfg.cluster.num_workers;

  TileRun run;
  run.shard_begin = partition_rows_balanced(a, n);
  run.steal = steal && n > 1;

  std::vector<std::vector<std::shared_ptr<const isa::Program>>> programs(n);
  auto images = std::make_shared<std::vector<StealWorkerImage>>();
  if (run.steal) {
    // One fine-grained global plan: every cluster compiles every tile
    // into the same worker images (the System holds and translates each
    // once). The cost cap carves ~kStealTilesPerCluster tiles per cluster.
    const std::uint64_t target = std::max<std::uint64_t>(
        1, total_cost(a) / (n * kStealTilesPerCluster));
    McTilePlan plan = cluster::plan_tiles_range(
        a, k.mc, 0, a.rows(), steal_flag_words(workers), target, k.num_cols,
        k.col_block);
    steal_order_tiles(plan.tiles);  // LPT: monster tiles claimed first
    for (unsigned w = 0; w < workers; ++w) {
      images->push_back(build_steal_worker(a, plan, k.mc, k.share,
                                           k.done_from_mailbox, w));
    }
    run.plans.assign(n, plan);
    for (auto& p : programs) {
      for (const auto& img : *images) p.push_back(img.program);
    }
  } else {
    for (unsigned c = 0; c < n; ++c) {
      run.plans.push_back(cluster::plan_tiles_range(
          a, k.mc, run.shard_begin[c], run.shard_begin[c + 1], 0, 0,
          k.num_cols, k.col_block));
      for (unsigned w = 0; w < workers; ++w) {
        programs[c].push_back(std::make_shared<const isa::Program>(
            cluster::build_shard_worker_program(a, run.plans[c], k.mc,
                                                k.share, w)));
      }
    }
  }

  System sys(cfg, std::move(programs));

  // Stage the operands once in the shared main memory; every cluster's
  // DMA addresses the same arrays (tiles by absolute row/nnz offsets).
  const cluster::TileOperands ops = cluster::stage_operands(
      sys.main_mem().store(), a, k.mc.width, k.dense, k.dense_elems,
      k.dense_ld, k.num_cols, k.two_d);

  const std::uint32_t phases = run.plans[0].num_phases();
  std::shared_ptr<std::vector<SysWorkQueue>> queues;
  if (run.steal) {
    queues = std::make_shared<std::vector<SysWorkQueue>>();
    for (std::uint32_t p = 0; p < phases; ++p) {
      queues->emplace_back(
          static_cast<std::uint32_t>(run.plans[0].tiles.size()), n,
          sys.noc().link_latency());
    }
  }
  const auto wire = [&sys](unsigned c, auto ctl) {
    sys.set_controller(c,
                       [ctl](Cluster& cl, cycle_t now) { (*ctl)(cl, now); });
    // Not-done from the start: the controller marks itself done after its
    // last phase, and Cluster::done must not read the cluster as finished
    // before then.
    sys.cluster(c).set_controller_done(false);
  };
  for (unsigned c = 0; c < n; ++c) {
    if (run.steal) {
      wire(c, std::make_shared<StealController>(run.plans[c], ops, images,
                                                queues, sys.barrier(),
                                                sys.noc(), c, workers));
    } else {
      wire(c, std::make_shared<ShardController>(
                  run.plans[c], ops, workers,
                  cfg.fabric ? &sys.barrier() : nullptr, c));
    }
  }

  const auto& mc = k.mc;
  if (mc.trace_sink) sys.attach_trace(*mc.trace_sink);
  if (mc.inject.drop_sys_barrier) sys.barrier().inject_drop_next_release();
  if (mc.inject.drop_cluster_barrier) {
    sys.cluster(0).barrier().inject_drop_next_release();
  }
  if (mc.inject.stall_dma) sys.cluster(0).dma().inject_stall();

  run.system = mc.max_cycles != 0 ? sys.run(mc.max_cycles) : sys.run();
  const std::size_t y_elems = static_cast<std::size_t>(a.rows()) * k.num_cols;
  if (y_elems > 0) sys.main_mem().store().read_doubles(ops.y, y, y_elems);
  if (queues) {
    for (const auto& q : *queues) {
      run.tile_owner.insert(run.tile_owner.end(), q.owners().begin(),
                            q.owners().end());
      run.queue += q.stats();
    }
  }
  return run;
}

SysCsrmvResult run_csrmv_system(const sparse::CsrMatrix& a,
                                const sparse::DenseVector& x,
                                const SysCsrmvConfig& cfg) {
  assert(a.cols() <= x.size());
  assert(cfg.width == IndexWidth::kU32 || a.fits_u16());
  TileKernel k;
  k.mc.variant = cfg.variant;
  k.mc.width = cfg.width;
  k.mc.cluster = cfg.system.cluster;
  k.mc.max_tile_rows = cfg.max_tile_rows;
  k.mc.max_cycles = cfg.max_cycles;
  k.mc.inject = cfg.inject;
  k.mc.trace_sink = cfg.trace_sink;
  k.dense = x.data();
  k.dense_elems = a.cols();

  SysCsrmvResult result;
  result.y = sparse::DenseVector(a.rows());
  TileRun run = run_tile_system(a, cfg.system, k, cfg.steal, result.y.data());
  result.system = std::move(run.system);
  result.shard_begin = std::move(run.shard_begin);
  result.plans = std::move(run.plans);
  result.steal = run.steal;
  result.tile_owner = std::move(run.tile_owner);
  result.queue = run.queue;
  return result;
}

}  // namespace issr::system
