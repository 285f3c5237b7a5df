#include "system/csrmv_sys.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace issr::system {

using cluster::McTilePlan;
using cluster::ShardController;
using sparse::IndexWidth;

namespace {

/// The System's barrier wrapper around a cluster's static ShardController:
/// once a phase's tiles have all written back, arrive at the system
/// barrier; on release start the next phase, or mark the controller done
/// after the last. Clusters with an empty shard only arrive, once per
/// phase (no dense block, no tiles). Fast-forward contract: after
/// `passed_` every invocation is an inert no-op.
class SysShardController {
 public:
  SysShardController(std::shared_ptr<ShardController> shard, SysBarrier& bar,
                     unsigned idx, std::uint32_t num_phases)
      : shard_(std::move(shard)), bar_(&bar), idx_(idx), phases_(num_phases) {}

  void operator()(Cluster& cl, cycle_t now) {
    if (passed_) return;
    if (!arrived_) {
      if (shard_) {
        shard_->tick(cl);
        if (!shard_->phase_done()) return;
      }
      arrived_ = true;
      bar_->arrive(idx_, now);
      return;
    }
    if (!bar_->released(idx_, now)) {
      // Parked on the barrier: declare the wake-up cycle so the system
      // engine can fast-forward the release latency.
      cl.set_controller_idle_until(bar_->release_hint(idx_));
      return;
    }
    arrived_ = false;
    if (++phase_ == phases_) {
      passed_ = true;
      cl.set_controller_done(true);
    } else if (shard_) {
      shard_->next_phase(cl);
    } else {
      arrived_ = true;
      bar_->arrive(idx_, now);
    }
  }

  /// Seam probe (Cluster::set_controller_seam_probe): earliest cycle the
  /// next tick may touch the SysBarrier. A shard's phase is bounded by
  /// local DMA completions (the finish->arrive tick is one), so it probes
  /// kCycleNever; an empty shard arrives at its very first tick and
  /// re-arrives inside each release tick; once arrived, the lane holds
  /// until the release cycle is decided and then seams exactly at it.
  cycle_t seam_probe(cycle_t now) const {
    if (passed_) return kCycleNever;
    if (arrived_) {
      const cycle_t hint = bar_->release_hint(idx_);
      return hint == kCycleNever ? kCycleHold : hint;
    }
    if (shard_) return kCycleNever;
    return now;
  }

 private:
  std::shared_ptr<ShardController> shard_;
  SysBarrier* bar_;
  unsigned idx_;
  std::uint32_t phases_;
  std::uint32_t phase_ = 0;
  bool arrived_ = false;
  bool passed_ = false;
};

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
    sys.cluster(c).set_controller_seam_probe(
        [ctl](cycle_t now) { return ctl->seam_probe(now); });
    // Not-done from the start: the seam probe must already be consulted
    // for the first tick (which can issue a queue claim or arrive at the
    // barrier), not only after the controller's own tick flips the done
    // flag.
    sys.cluster(c).set_controller_done(false);
  };
  for (unsigned c = 0; c < n; ++c) {
    if (run.steal) {
      wire(c, std::make_shared<StealController>(run.plans[c], ops, images,
                                                queues, sys.barrier(),
                                                sys.noc(), c, workers));
      continue;
    }
    std::shared_ptr<ShardController> shard;
    if (!run.plans[c].tiles.empty()) {
      shard = std::make_shared<ShardController>(run.plans[c], ops, workers);
    }
    wire(c, std::make_shared<SysShardController>(std::move(shard),
                                                 sys.barrier(), c, phases));
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
