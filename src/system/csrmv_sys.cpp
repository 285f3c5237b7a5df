#include "system/csrmv_sys.hpp"

#include <cassert>
#include <deque>
#include <memory>
#include <utility>

#include "cluster/csrmv_shard.hpp"
#include "isa/assembler.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/kargs.hpp"
#include "system/steal.hpp"

namespace issr::system {

using cluster::CsrmvMainLayout;
using cluster::kRowCostOverhead;
using cluster::McCsrmvConfig;
using cluster::McTilePlan;
using cluster::ShardController;
using sparse::IndexWidth;

namespace {

/// Wraps a cluster's ShardController with the inter-cluster protocol:
/// once the shard's tiles have all written back, arrive at the system
/// barrier and mark the controller done only when the release has
/// propagated. Clusters with an empty shard skip straight to the
/// arrival (no x load, no tiles). Fast-forward contract: after `passed_`
/// every invocation is an inert no-op.
class SysCsrmvController {
 public:
  SysCsrmvController(std::shared_ptr<ShardController> shard, SysBarrier& bar,
                     unsigned idx)
      : shard_(std::move(shard)), bar_(&bar), idx_(idx) {}

  void operator()(Cluster& cl, cycle_t now) {
    if (passed_) return;
    if (shard_) {
      (*shard_)(cl, now);
      if (!shard_->finished()) return;
    } else if (!started_) {
      started_ = true;
      cl.set_controller_done(false);
    }
    if (!arrived_) {
      arrived_ = true;
      bar_->arrive(idx_, now);
      return;
    }
    if (bar_->released(idx_, now)) {
      passed_ = true;
      cl.set_controller_done(true);
    } else {
      // Parked on the barrier: declare the wake-up cycle so the system
      // engine can fast-forward the release latency.
      cl.set_controller_idle_until(bar_->release_hint(idx_));
    }
  }

  /// Seam probe (Cluster::set_controller_seam_probe): earliest cycle the
  /// next tick may touch the SysBarrier. The shard phase is bounded by
  /// local DMA completions (the finish->arrive tick is one), so it probes
  /// kCycleNever; an empty shard arrives at its very first tick; once
  /// arrived, the lane holds until the release cycle is decided and then
  /// seams exactly at it.
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
  bool started_ = false;
  bool arrived_ = false;
  bool passed_ = false;
};

// ---------------------------------------------------------------------------
// Dynamic work stealing (system/steal.hpp): every cluster gets the same
// fine-grained global tile plan and the same per-worker program objects
// (the System holds and translates each once); tiles are claimed at run
// time from the shared SysWorkQueue and dispatched to the workers through
// the TCDM mailbox protocol.

/// One worker's program plus the dispatch table the DMCC needs: the
/// instruction address of each (tile, buffer) body and of the halt
/// epilogue. Addresses are per worker — body sizes vary with the row
/// share and li expansion.
struct StealWorkerImage {
  std::shared_ptr<const isa::Program> program;
  std::vector<addr_t> body_pc;  ///< [plan.buf.size() * tile + buffer]
  addr_t epilogue_pc = 0;
};

/// Build worker `worker`'s steal-mode program: a mailbox idle loop
/// followed by one CsrMV body per (global tile, buffer) pair. Bodies
/// compute the worker's static row share of the tile — identical at any
/// cluster count — fence, publish done = tile + 1, and jump back to the
/// idle loop. The epilogue (dispatched once the cluster's share of the
/// queue is drained) is the usual streamer sync + halt tail.
StealWorkerImage build_steal_csrmv_worker(const sparse::CsrMatrix& a,
                                          const McTilePlan& plan,
                                          const McCsrmvConfig& cfg,
                                          unsigned worker) {
  using namespace issr::isa;
  using kernels::CsrmvRange;
  const unsigned iw = sparse::index_bytes(cfg.width);
  const unsigned W = cfg.cluster.num_workers;
  const unsigned K = static_cast<unsigned>(plan.buf.size());
  Assembler as;
  StealWorkerImage img;

  // Idle loop: poll the mailbox (backed off with nops like the static
  // tile-flag poll), consume the body address, jump to it. The mailbox
  // base is reloaded every iteration — bodies may clobber kT3.
  Label loop = as.here();
  as.li(kT3, static_cast<std::int64_t>(
                 steal_mailbox_pc(plan.flags_addr, worker)));
  as.ld(kT0, kT3, 0);
  for (int i = 0; i < 6; ++i) as.nop();
  as.beq(kT0, kZero, loop);
  as.sd(kZero, kT3, 0);
  as.jalr(kZero, kT0, 0);

  img.body_pc.resize(plan.tiles.size() * K, 0);
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const auto& tile = plan.tiles[t];
    // Cost-balanced row shares (csrmv_shard.cpp): a pure function of the
    // tile bounds, so every cluster compiles identical shares and y stays
    // bitwise identical under any ownership schedule.
    const auto share =
        cluster::split_rows_by_cost(a, tile.row_begin, tile.row_end, W);
    const std::uint32_t r0 = share[worker];
    const std::uint32_t r1 = share[worker + 1];

    for (unsigned b = 0; b < K; ++b) {
      img.body_pc[K * t + b] =
          isa::Program::kBaseAddr + 4 * static_cast<addr_t>(as.position());
      if (r1 > r0) {
        const std::uint64_t local_nnz_off = a.ptr()[r0] - tile.nnz_begin;
        CsrmvRange range;
        range.ptr_addr = plan.buf[b].ptr_addr + 4ull * (r0 - tile.row_begin);
        range.row_count = r1 - r0;
        range.range_nnz = a.ptr()[r1] - a.ptr()[r0];
        range.vals_addr = plan.buf[b].vals_addr + 8ull * local_nnz_off;
        range.idcs_addr = plan.buf[b].idcs_addr +
                          static_cast<std::uint64_t>(iw) * local_nnz_off;
        range.x_addr = plan.x_addr;
        range.y_addr = plan.buf[b].y_addr + 8ull * (r0 - tile.row_begin);
        range.y_stride = 8;
        range.width = cfg.width;
        kernels::emit_csrmv_range(as, cfg.variant, range);

        // Store fence (see csrmv_shard.cpp): order the FP-side result
        // stores before the done-flag publish.
        as.li(kT4, static_cast<std::int64_t>(
                       range.y_addr + 8ull * (range.row_count - 1)));
        as.fld(kFt3, kT4, 0);
        kernels::emit_fpss_sync(as);
      }
      as.li(kT0, static_cast<std::int64_t>(t + 1));
      as.li(kT1, static_cast<std::int64_t>(
                     steal_done_flag(plan.flags_addr, W, worker)));
      as.sd(kT0, kT1, 0);
      as.j(loop);
    }
  }

  img.epilogue_pc =
      isa::Program::kBaseAddr + 4 * static_cast<addr_t>(as.position());
  if (cfg.variant != kernels::Variant::kBase) {
    kernels::emit_sync_and_disable(as);
  }
  kernels::emit_halt(as);
  img.program = std::make_shared<const isa::Program>(as.assemble());
  return img;
}

/// DMCC model for one cluster under work stealing: claim global tiles
/// from the shared queue (at most one claim in flight, up to one granted
/// tile queued beyond the plan's K staging buffers), rotate their loads
/// through whichever buffer is free, dispatch each loaded tile to the
/// workers in grant order through the mailboxes, write results back, and
/// — once the queue is drained — dispatch the halt epilogue and arrive
/// at the inter-cluster barrier.
class StealCsrmvController {
 public:
  StealCsrmvController(const McTilePlan& plan, const CsrmvMainLayout& main,
                       const sparse::CsrMatrix& a,
                       const std::vector<StealWorkerImage>* images,
                       std::shared_ptr<SysWorkQueue> queue, SysBarrier& bar,
                       mem::Interconnect& noc, unsigned idx, unsigned workers,
                       unsigned index_bytes)
      : plan_(plan),
        main_(main),
        a_(a),
        images_(images),
        q_(std::move(queue)),
        bar_(&bar),
        noc_(&noc),
        idx_(idx),
        workers_(workers),
        iw_(index_bytes),
        nbuf_(static_cast<unsigned>(plan.buf.size())),
        state_(nbuf_, BufState::kIdle),
        buf_tile_(nbuf_, 0),
        load_marker_(nbuf_, 0),
        wb_marker_(nbuf_, 0) {
    assert(workers_ <= 32);
  }

  void operator()(Cluster& cl, cycle_t now) {
    if (passed_) return;
    auto& dma = cl.dma();
    auto& store = cl.tcdm().store();
    const auto T = static_cast<std::uint32_t>(plan_.tiles.size());

    if (!started_) {
      started_ = true;
      cl.set_controller_done(false);
      // Replicate x (loads before any tile on the same channel, so no
      // tile can dispatch before x has landed).
      dma.start_1d(plan_.x_addr, main_.x, 8ull * a_.cols());
      queued_in_ += 1;
      if (T == 0) exhausted_ = true;
    }

    if (!work_done_) {
      // Claim flow: resolve an outstanding claim, then keep at most one
      // granted tile queued beyond the K buffers in flight.
      if (q_->outstanding(idx_)) {
        std::uint32_t item = 0;
        if (q_->poll(idx_, now, *noc_, item)) {
          if (item < T) {
            granted_.push_back(item);
          } else {
            exhausted_ = true;
          }
        }
      }
      unsigned busy = 0;
      for (unsigned b = 0; b < nbuf_; ++b) {
        if (state_[b] != BufState::kIdle) ++busy;
      }
      if (!exhausted_ && !q_->outstanding(idx_) &&
          granted_.size() + busy < nbuf_ + 1) {
        q_->try_request(idx_, now, *noc_);
      }

      // Start granted loads into free buffers, oldest grant first. Each
      // load appends one entry to the cluster-local dispatch list.
      while (!granted_.empty()) {
        unsigned b = 0;
        while (b < nbuf_ && state_[b] != BufState::kIdle) ++b;
        if (b == nbuf_) break;
        start_tile_load(cl, b, granted_.front());
        granted_.pop_front();
        dispatch_.push_back(b);
      }

      for (unsigned b = 0; b < nbuf_; ++b) {
        switch (state_[b]) {
          case BufState::kLoading:
            if (dma.completed_in() >= load_marker_[b]) {
              state_[b] = BufState::kReady;
            }
            break;
          case BufState::kReady: {
            // All done counters past this tile = every worker consumed
            // its dispatch and finished its share; the buffer's y slice
            // is final.
            bool all_done = true;
            for (unsigned w = 0; w < workers_; ++w) {
              if (store.load_u64(steal_done_flag(plan_.flags_addr, workers_,
                                                 w)) < buf_tile_[b] + 1) {
                all_done = false;
                break;
              }
            }
            if (all_done) {
              const auto& t = plan_.tiles[buf_tile_[b]];
              dma.start_1d(main_.y + 8ull * t.row_begin, plan_.buf[b].y_addr,
                           8ull * (t.row_end - t.row_begin));
              wb_marker_[b] = ++queued_out_;
              state_[b] = BufState::kWritingBack;
            }
            break;
          }
          case BufState::kWritingBack:
            if (dma.completed_out() >= wb_marker_[b]) {
              state_[b] = BufState::kIdle;
            }
            break;
          case BufState::kIdle:
            break;
        }
      }

      // Dispatch per worker: hand worker w its next tile as soon as that
      // tile's buffer is loaded and w's mailbox is free — fast workers
      // run up to K-1 tiles ahead while stragglers finish, exactly like
      // the static path's generation counters. Done counters stay
      // monotone because grants arrive in increasing global-tile order.
      // A buffer cannot recycle under an undispatched worker: its
      // writeback needs every done counter past its tile first.
      for (unsigned w = 0; w < workers_; ++w) {
        if (next_idx_[w] >= dispatch_.size()) continue;
        const unsigned b = dispatch_[next_idx_[w]];
        if (state_[b] != BufState::kReady) continue;
        const addr_t mbox = steal_mailbox_pc(plan_.flags_addr, w);
        if (store.load_u64(mbox) != 0) continue;
        store.store_u64(
            mbox,
            (*images_)[w].body_pc[static_cast<std::uint64_t>(nbuf_) *
                                      buf_tile_[b] +
                                  b]);
        ++next_idx_[w];
      }

      bool all_idle = true;
      for (unsigned b = 0; b < nbuf_; ++b) {
        if (state_[b] != BufState::kIdle) all_idle = false;
      }
      if (exhausted_ && granted_.empty() && !q_->outstanding(idx_) &&
          all_idle) {
        work_done_ = true;
      }
    }

    if (work_done_ && !all_halted_) {
      for (unsigned w = 0; w < workers_; ++w) {
        if (ep_mask_ & (1u << w)) continue;
        const addr_t mbox = steal_mailbox_pc(plan_.flags_addr, w);
        if (store.load_u64(mbox) != 0) continue;
        store.store_u64(mbox, (*images_)[w].epilogue_pc);
        ep_mask_ |= 1u << w;
      }
      if (ep_mask_ == (1u << workers_) - 1) all_halted_ = true;
    }
    if (!all_halted_) return;

    if (!arrived_) {
      arrived_ = true;
      bar_->arrive(idx_, now);
      return;
    }
    if (bar_->released(idx_, now)) {
      passed_ = true;
      cl.set_controller_done(true);
    } else {
      cl.set_controller_idle_until(bar_->release_hint(idx_));
    }
  }

  /// Seam probe (Cluster::set_controller_seam_probe). Shared touches are
  /// the claim queue (try_request at any tick with a free claim slot,
  /// poll from the grant's precomputed delivery cycle) and the SysBarrier.
  /// Capacity openings (a writeback completing, a grant landing) happen
  /// in coordinated ticks and are visible to the probe before the next
  /// tick, so "capacity available -> now" never lags a request by a
  /// cycle. Epilogue dispatch ticks are worker-paced, so the whole
  /// stretch up to the arrive runs coordinated.
  cycle_t seam_probe(cycle_t now) const {
    if (passed_) return kCycleNever;
    if (!started_) return now;
    if (arrived_) {
      const cycle_t hint = bar_->release_hint(idx_);
      return hint == kCycleNever ? kCycleHold : hint;
    }
    if (!work_done_) {
      if (q_->outstanding(idx_)) return q_->ready_at(idx_);
      unsigned busy = 0;
      for (unsigned b = 0; b < nbuf_; ++b) {
        if (state_[b] != BufState::kIdle) ++busy;
      }
      if (!exhausted_ && granted_.size() + busy < nbuf_ + 1) return now;
      return kCycleNever;  // next capacity change hangs off a DMA event
    }
    return now;  // epilogue: the arrive tick is worker-paced
  }

 private:
  enum class BufState { kIdle, kLoading, kReady, kWritingBack };

  void start_tile_load(Cluster& cl, unsigned b, std::uint32_t tile) {
    const auto& t = plan_.tiles[tile];
    auto& dma = cl.dma();
    const std::uint32_t rows = t.row_end - t.row_begin;
    const std::uint64_t nnz = t.nnz_end - t.nnz_begin;
    dma.start_1d(plan_.buf[b].ptr_addr, main_.ptr + 4ull * t.row_begin,
                 4ull * (rows + 1));
    dma.start_1d(plan_.buf[b].vals_addr, main_.vals + 8ull * t.nnz_begin,
                 8ull * nnz);
    dma.start_1d(plan_.buf[b].idcs_addr,
                 main_.idcs + static_cast<std::uint64_t>(iw_) * t.nnz_begin,
                 static_cast<std::uint64_t>(iw_) * nnz);
    load_marker_[b] = queued_in_ += 3;
    state_[b] = BufState::kLoading;
    buf_tile_[b] = tile;
  }

  const McTilePlan& plan_;
  CsrmvMainLayout main_;
  const sparse::CsrMatrix& a_;
  const std::vector<StealWorkerImage>* images_;
  std::shared_ptr<SysWorkQueue> q_;
  SysBarrier* bar_;
  mem::Interconnect* noc_;
  unsigned idx_;
  unsigned workers_;
  unsigned iw_;

  unsigned nbuf_;

  bool started_ = false;
  bool exhausted_ = false;
  bool work_done_ = false;
  bool all_halted_ = false;
  bool arrived_ = false;
  bool passed_ = false;
  std::uint64_t queued_in_ = 0;
  std::uint64_t queued_out_ = 0;
  std::vector<BufState> state_;
  std::vector<std::uint32_t> buf_tile_;
  std::vector<std::uint64_t> load_marker_;
  std::vector<std::uint64_t> wb_marker_;
  std::deque<std::uint32_t> granted_;
  /// Buffers in grant order; entry i is the i-th tile this cluster won.
  std::vector<unsigned> dispatch_;
  /// Per worker: the next dispatch_ entry it has not been handed yet.
  std::vector<std::size_t> next_idx_ = std::vector<std::size_t>(workers_, 0);
  std::uint32_t ep_mask_ = 0;
};

}  // namespace

std::vector<std::uint32_t> partition_rows_balanced(const sparse::CsrMatrix& a,
                                                   unsigned n) {
  assert(n >= 1);
  const std::uint32_t rows = a.rows();
  // Total cost and the greedy sweep share one accumulator type; the
  // boundaries land where each shard's cost first reaches its target
  // (total * (c+1) / n), which equalizes cost to within one row.
  std::uint64_t total = 0;
  for (std::uint32_t r = 0; r < rows; ++r) {
    total += (a.ptr()[r + 1] - a.ptr()[r]) + kRowCostOverhead;
  }
  std::vector<std::uint32_t> out(n + 1, rows);
  out[0] = 0;
  std::uint64_t acc = 0;
  std::uint32_t r = 0;
  for (unsigned c = 0; c + 1 < n; ++c) {
    const std::uint64_t target = total * (c + 1) / n;
    while (r < rows && acc < target) {
      acc += (a.ptr()[r + 1] - a.ptr()[r]) + kRowCostOverhead;
      ++r;
    }
    out[c + 1] = r;
  }
  return out;
}

SysCsrmvResult run_csrmv_system(const sparse::CsrMatrix& a,
                                const sparse::DenseVector& x,
                                const SysCsrmvConfig& cfg) {
  assert(a.cols() <= x.size());
  assert(cfg.width == IndexWidth::kU32 || a.fits_u16());
  const unsigned iw = sparse::index_bytes(cfg.width);
  const unsigned n = cfg.system.num_clusters;
  const unsigned workers = cfg.system.cluster.num_workers;

  SysCsrmvResult result;
  result.shard_begin = partition_rows_balanced(a, n);
  result.steal = cfg.steal && n > 1;

  // Per-cluster plans and worker programs. The planning view reuses the
  // single-cluster configuration carrier.
  McCsrmvConfig mc;
  mc.variant = cfg.variant;
  mc.width = cfg.width;
  mc.cluster = cfg.system.cluster;
  mc.max_tile_rows = cfg.max_tile_rows;

  std::vector<std::vector<std::shared_ptr<const isa::Program>>> programs(n);
  std::vector<StealWorkerImage> images;
  if (result.steal) {
    // One fine-grained global plan: every cluster compiles every tile.
    // The cost cap carves ~steal_tiles_per_cluster tiles per cluster.
    std::uint64_t total = 0;
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
      total += (a.ptr()[r + 1] - a.ptr()[r]) + kRowCostOverhead;
    }
    const std::uint64_t shares =
        static_cast<std::uint64_t>(n) *
        (cfg.steal_tiles_per_cluster == 0 ? 1 : cfg.steal_tiles_per_cluster);
    std::uint64_t target = total / shares;
    if (target == 0) target = 1;
    const unsigned nbuf = cfg.steal_buffers < 2 ? 2u : cfg.steal_buffers;
    McTilePlan plan = plan_tiles_range(
        a, mc, 0, a.rows(), steal_flag_words(workers), target, nbuf);
    steal_order_tiles(plan.tiles);  // LPT: monster tiles claimed first
    for (unsigned w = 0; w < workers; ++w) {
      images.push_back(build_steal_csrmv_worker(a, plan, mc, w));
    }
    for (unsigned c = 0; c < n; ++c) {
      result.plans.push_back(plan);
      for (unsigned w = 0; w < workers; ++w) {
        programs[c].push_back(images[w].program);
      }
    }
  } else {
    for (unsigned c = 0; c < n; ++c) {
      result.plans.push_back(plan_tiles_range(
          a, mc, result.shard_begin[c], result.shard_begin[c + 1]));
      for (unsigned w = 0; w < workers; ++w) {
        programs[c].push_back(std::make_shared<const isa::Program>(
            cluster::build_shard_worker_program(a, result.plans[c], mc, w)));
      }
    }
  }

  System sys(cfg.system, std::move(programs));

  // Stage the operands once in the shared main memory; every cluster's
  // DMA addresses the same arrays (tiles by absolute row/nnz offsets).
  const CsrmvMainLayout main =
      cluster::stage_csrmv_main(sys.main_mem().store(), a, x, cfg.width);

  std::shared_ptr<SysWorkQueue> queue;
  if (result.steal) {
    queue = std::make_shared<SysWorkQueue>(
        static_cast<std::uint32_t>(result.plans[0].tiles.size()), n,
        sys.noc().link_latency());
    for (unsigned c = 0; c < n; ++c) {
      auto ctl = std::make_shared<StealCsrmvController>(
          result.plans[c], main, a, &images, queue, sys.barrier(), sys.noc(),
          c, workers, iw);
      sys.set_controller(
          c, [ctl](Cluster& cl, cycle_t now) { (*ctl)(cl, now); });
      sys.cluster(c).set_controller_seam_probe(
          [ctl](cycle_t now) { return ctl->seam_probe(now); });
      // Not-done from the start: the seam probe must already be consulted
      // for the first tick (which can issue a queue claim or arrive at
      // the barrier), not only after the controller's own tick flips the
      // done flag.
      sys.cluster(c).set_controller_done(false);
    }
  } else {
    for (unsigned c = 0; c < n; ++c) {
      std::shared_ptr<ShardController> shard;
      if (!result.plans[c].tiles.empty()) {
        shard = std::make_shared<ShardController>(
            result.plans[c], main, a, workers, iw,
            ShardController::Completion{});  // the wrapper owns completion
      }
      auto ctl = std::make_shared<SysCsrmvController>(std::move(shard),
                                                      sys.barrier(), c);
      sys.set_controller(
          c, [ctl](Cluster& cl, cycle_t now) { (*ctl)(cl, now); });
      sys.cluster(c).set_controller_seam_probe(
          [ctl](cycle_t now) { return ctl->seam_probe(now); });
      // Not-done from the start: the seam probe must already be consulted
      // for the first tick (which can issue a queue claim or arrive at
      // the barrier), not only after the controller's own tick flips the
      // done flag.
      sys.cluster(c).set_controller_done(false);
    }
  }

  if (cfg.trace_sink) sys.attach_trace(*cfg.trace_sink);
  if (cfg.inject.drop_sys_barrier) sys.barrier().inject_drop_next_release();
  if (cfg.inject.drop_cluster_barrier) {
    sys.cluster(0).barrier().inject_drop_next_release();
  }
  if (cfg.inject.stall_dma) sys.cluster(0).dma().inject_stall();

  result.system = cfg.max_cycles != 0 ? sys.run(cfg.max_cycles) : sys.run();
  result.y = sparse::DenseVector(a.rows());
  sys.main_mem().store().read_doubles(main.y, result.y.data(), a.rows());
  if (queue) {
    result.tile_owner = queue->owners();
    result.queue = queue->stats();
  }
  return result;
}

}  // namespace issr::system
