#include "system/steal.hpp"

#include <algorithm>
#include <cassert>

#include "isa/assembler.hpp"
#include "kernels/kargs.hpp"

namespace issr::system {

void steal_order_tiles(std::vector<cluster::McTilePlan::Tile>& tiles) {
  const auto cost = [](const cluster::McTilePlan::Tile& t) {
    return (t.nnz_end - t.nnz_begin) +
           cluster::kRowCostOverhead * (t.row_end - t.row_begin);
  };
  std::stable_sort(tiles.begin(), tiles.end(),
                   [&](const auto& lhs, const auto& rhs) {
                     return cost(lhs) > cost(rhs);
                   });
}

SysWorkQueue::SysWorkQueue(std::uint32_t num_items, unsigned num_clusters,
                           cycle_t hop_latency)
    : total_(num_items),
      hop_(hop_latency),
      pending_(num_clusters),
      owners_(num_items, num_clusters) {}

bool SysWorkQueue::try_request(unsigned c, cycle_t now,
                               mem::Interconnect& noc) {
  assert(!pending_[c].active && "one claim outstanding per cluster");
  if (!noc.try_link_beat(c, mem::Interconnect::Dir::kEgress, now)) {
    ++stats_.send_denied;
    return false;
  }
  const cycle_t arrive = now + hop_;
  const cycle_t serve = arrive > serve_free_ ? arrive : serve_free_;
  serve_free_ = serve + 1;
  Pending& p = pending_[c];
  p.active = true;
  p.sent = now;
  p.ready = serve + hop_;
  if (cursor_ < total_) {
    p.item = cursor_;
    owners_[cursor_] = c;
    ++cursor_;
  } else {
    p.item = total_;  // exhausted
  }
  return true;
}

bool SysWorkQueue::poll(unsigned c, cycle_t now, mem::Interconnect& noc,
                        std::uint32_t& item) {
  Pending& p = pending_[c];
  if (!p.active || now < p.ready) return false;
  if (!noc.try_link_beat(c, mem::Interconnect::Dir::kIngress, now)) {
    ++stats_.deliver_denied;
    return false;
  }
  item = p.item;
  p.active = false;
  const std::uint64_t wait = now - p.sent;
  ++stats_.claims;
  stats_.claim_wait_cycles += wait;
  if (wait > stats_.claim_wait_max) stats_.claim_wait_max = wait;
  return true;
}

StealWorkerImage build_steal_worker(const sparse::CsrMatrix& a,
                                    const cluster::McTilePlan& plan,
                                    const cluster::McCsrmvConfig& cfg,
                                    cluster::RowShare share,
                                    bool done_from_mailbox, unsigned worker) {
  using namespace issr::isa;
  const unsigned W = cfg.cluster.num_workers;
  const std::size_t T = plan.tiles.size();
  const addr_t mbox = steal_mailbox_pc(plan.flags_addr, worker);
  Assembler as;
  StealWorkerImage img;

  // Idle loop: poll the mailbox (backed off with nops like the static
  // tile-flag poll), stash the argument in the scratch word if the bodies
  // publish it, consume, jump. The mailbox base is reloaded every
  // iteration — bodies may clobber kT3.
  Label loop = as.here();
  as.li(kT3, static_cast<std::int64_t>(mbox));
  as.ld(kT0, kT3, 0);
  for (int i = 0; i < 6; ++i) as.nop();
  as.beq(kT0, kZero, loop);
  if (done_from_mailbox) {
    as.ld(kT1, kT3, 8);
    as.sd(kT1, kT3, 16);
  }
  as.sd(kZero, kT3, 0);
  as.jalr(kZero, kT0, 0);

  const std::uint32_t kind_cols[2] = {
      std::min(plan.col_block, plan.num_cols), plan.num_cols % plan.col_block};
  for (unsigned kind = 0; kind < 2 && kind_cols[kind] != 0; ++kind) {
    img.body_pc[kind].resize(2 * T, 0);
    for (std::size_t t = 0; t < T; ++t) {
      const auto& tile = plan.tiles[t];
      // Row shares are a pure function of the tile bounds, so every
      // cluster compiles identical shares and y stays bitwise identical
      // under any ownership schedule.
      const auto rows = cluster::worker_rows(a, tile, share, W, worker);
      for (unsigned b = 0; b < 2; ++b) {
        img.body_pc[kind][2 * t + b] =
            Program::kBaseAddr + 4 * static_cast<addr_t>(as.position());
        cluster::emit_tile_share(as, a, plan, cfg, tile, b, rows,
                                 kind_cols[kind]);
        if (done_from_mailbox) {
          as.li(kT3, static_cast<std::int64_t>(mbox));
          as.ld(kT0, kT3, 16);
        } else {
          as.li(kT0, static_cast<std::int64_t>(t + 1));
        }
        as.li(kT1, static_cast<std::int64_t>(
                       steal_done_flag(plan.flags_addr, W, worker)));
        as.sd(kT0, kT1, 0);
        as.j(loop);
      }
    }
  }

  img.epilogue_pc =
      Program::kBaseAddr + 4 * static_cast<addr_t>(as.position());
  if (cfg.variant != kernels::Variant::kBase) {
    kernels::emit_sync_and_disable(as);
  }
  kernels::emit_halt(as);
  img.program = std::make_shared<const isa::Program>(as.assemble());
  return img;
}

StealController::StealController(
    const cluster::McTilePlan& plan, const cluster::TileOperands& ops,
    std::shared_ptr<const std::vector<StealWorkerImage>> images,
    std::shared_ptr<std::vector<SysWorkQueue>> queues, SysBarrier& bar,
    mem::Interconnect& noc, unsigned idx, unsigned workers)
    : plan_(plan),
      ops_(ops),
      images_(std::move(images)),
      queues_(std::move(queues)),
      bar_(&bar),
      noc_(&noc),
      idx_(idx),
      workers_(workers),
      next_idx_(workers, 0),
      epilogue_sent_(workers, false) {}

void StealController::start_phase(cluster::Cluster& cl) {
  // The dense block loads before any tile on the same channel, so no tile
  // can dispatch before it has landed.
  cluster::dma_load_block(cl.dma(), plan_, ops_, phase_);
  queued_in_ += 1;
  exhausted_ = plan_.tiles.empty();
  body_kind_ = plan_.phase_cols(phase_) == plan_.col_block ? 0 : 1;
  dispatch_.clear();
  std::fill(next_idx_.begin(), next_idx_.end(), 0);
}

void StealController::start_tile_load(cluster::Cluster& cl, unsigned b,
                                      std::uint32_t tile) {
  cluster::dma_load_tile(cl.dma(), plan_, ops_, b, plan_.tiles[tile]);
  load_marker_[b] = queued_in_ += 3;
  state_[b] = BufState::kLoading;
  buf_tile_[b] = tile;
}

void StealController::operator()(cluster::Cluster& cl, cycle_t now) {
  if (passed_) return;
  auto& dma = cl.dma();
  auto& store = cl.tcdm().store();
  const auto T = static_cast<std::uint32_t>(plan_.tiles.size());

  if (!started_) {
    started_ = true;
    cl.set_controller_done(false);
    start_phase(cl);
  }

  if (arrived_) {
    if (bar_->released(idx_, now)) {
      arrived_ = false;
      if (++phase_ == plan_.num_phases()) {
        passed_ = true;
        cl.set_controller_done(true);
        return;
      }
      start_phase(cl);
    } else {
      // Parked on the barrier: declare the wake-up cycle so the system
      // engine can fast-forward the release latency.
      cl.set_controller_idle_until(bar_->release_hint(idx_));
    }
    return;
  }

  if (!phase_done_) {
    // Claim flow: resolve an outstanding claim, then keep at most one
    // granted tile queued beyond the two buffers in flight.
    SysWorkQueue& q = (*queues_)[phase_];
    if (q.outstanding(idx_)) {
      std::uint32_t item = 0;
      if (q.poll(idx_, now, *noc_, item)) {
        if (item < T) {
          granted_.push_back(item);
        } else {
          exhausted_ = true;
        }
      }
    }
    if (!exhausted_ && !q.outstanding(idx_) &&
        granted_.size() + busy_buffers() < 3) {
      q.try_request(idx_, now, *noc_);
    }

    // Start granted loads into free buffers, oldest grant first. Each
    // load appends one entry to the cluster-local dispatch list.
    while (!granted_.empty()) {
      unsigned b = 0;
      while (b < 2 && state_[b] != BufState::kIdle) ++b;
      if (b == 2) break;
      start_tile_load(cl, b, granted_.front());
      granted_.pop_front();
      dispatch_.push_back(b);
    }

    for (unsigned b = 0; b < 2; ++b) {
      switch (state_[b]) {
        case BufState::kLoading:
          if (dma.completed_in() >= load_marker_[b]) {
            state_[b] = BufState::kReady;
          }
          break;
        case BufState::kReady: {
          // All done counters past this generation = every worker
          // consumed its dispatch and finished its share; the buffer's y
          // slice is final.
          const std::uint64_t done = gen(buf_tile_[b]) + 1;
          bool all_done = true;
          for (unsigned w = 0; w < workers_; ++w) {
            if (store.load_u64(steal_done_flag(plan_.flags_addr, workers_,
                                               w)) < done) {
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
            state_[b] = BufState::kIdle;
          }
          break;
        case BufState::kIdle:
          break;
      }
    }

    // Dispatch per worker: hand worker w its next tile as soon as that
    // tile's buffer is loaded and w's mailbox is free — fast workers run
    // ahead into the other buffer while stragglers finish, exactly like
    // the static path's generation counters. Done counters stay monotone
    // because grants arrive in increasing tile order and phases only
    // advance. A buffer cannot recycle under an undispatched worker: its
    // writeback needs every done counter past its tile first.
    for (unsigned w = 0; w < workers_; ++w) {
      if (next_idx_[w] >= dispatch_.size()) continue;
      const unsigned b = dispatch_[next_idx_[w]];
      if (state_[b] != BufState::kReady) continue;
      const addr_t mbox = steal_mailbox_pc(plan_.flags_addr, w);
      if (store.load_u64(mbox) != 0) continue;
      // Argument before pc: the worker reads it only after seeing a
      // nonzero pc.
      store.store_u64(steal_mailbox_arg(plan_.flags_addr, w),
                      gen(buf_tile_[b]) + 1);
      store.store_u64(
          mbox, (*images_)[w].body_pc[body_kind_][2ull * buf_tile_[b] + b]);
      ++next_idx_[w];
    }

    if (exhausted_ && granted_.empty() && !q.outstanding(idx_) &&
        busy_buffers() == 0) {
      phase_done_ = true;
    }
  }

  if (phase_done_) {
    const bool last = phase_ + 1 == plan_.num_phases();
    if (last) {
      for (unsigned w = 0; w < workers_; ++w) {
        if (epilogue_sent_[w]) continue;
        const addr_t mbox = steal_mailbox_pc(plan_.flags_addr, w);
        if (store.load_u64(mbox) != 0) continue;
        store.store_u64(mbox, (*images_)[w].epilogue_pc);
        epilogue_sent_[w] = true;
        ++epilogues_;
      }
    }
    if (!last || epilogues_ == workers_) {
      phase_done_ = false;
      arrived_ = true;
      bar_->arrive(idx_, now);
    }
  }
}

cycle_t StealController::seam_probe(cycle_t now) const {
  if (passed_) return kCycleNever;
  if (!started_) return now;
  if (arrived_) {
    const cycle_t hint = bar_->release_hint(idx_);
    return hint == kCycleNever ? kCycleHold : hint;
  }
  if (!phase_done_) {
    const SysWorkQueue& q = (*queues_)[phase_];
    if (q.outstanding(idx_)) return q.ready_at(idx_);
    if (!exhausted_ && granted_.size() + busy_buffers() < 3) return now;
    return kCycleNever;  // next capacity change hangs off a DMA event
  }
  return now;  // last-phase epilogue: the arrive tick is worker-paced
}

}  // namespace issr::system
