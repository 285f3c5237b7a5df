#include "system/csrmm_sys.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <utility>

#include "cluster/csrmv_shard.hpp"
#include "common/bitutil.hpp"
#include "isa/assembler.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/kargs.hpp"
#include "system/csrmv_sys.hpp"
#include "system/steal.hpp"

namespace issr::system {

using namespace issr::isa;
using kernels::CsrmvRange;
using kernels::Variant;
using sparse::IndexWidth;

// NOTE: the planner, worker-program scaffolding (poll/backoff, store
// fence, done-flag publish), and controller buffer state machine below
// deliberately mirror cluster/csrmv_shard.cpp with the column-phase
// dimension added (B-block region and loads, y tiles widened by cb, 2-D
// writebacks, a barrier generation per phase). The shapes diverge enough
// that a shared parameterization was judged worse than the fork — but a
// fix to the flag protocol, the fence, or the TCDM budget math almost
// certainly applies to BOTH files; change them together.

namespace {

/// Main-memory staging layout for the CsrMM operands.
struct CsrmmMainLayout {
  addr_t ptr = 0, idcs = 0, vals = 0, b = 0, y = 0;
};

CsrmmMainLayout stage_csrmm_main(mem::BackingStore& store,
                                 const sparse::CsrMatrix& a,
                                 const sparse::DenseMatrix& b,
                                 IndexWidth width) {
  const unsigned iw = sparse::index_bytes(width);
  CsrmmMainLayout main;
  addr_t cursor = mem::MainMemory::kBase;
  auto take = [&](std::uint64_t bytes) {
    const addr_t at = align_up(cursor, 64);
    cursor = at + bytes;
    return at;
  };
  main.ptr = take(4ull * (a.rows() + 1));
  main.idcs = take(static_cast<std::uint64_t>(iw) * a.nnz());
  main.vals = take(8ull * a.nnz());
  main.b = take(8ull * b.storage_elems());
  main.y = take(8ull * a.rows() * b.cols());

  store.write_u32s(main.ptr, a.ptr().data(), a.ptr().size());
  const auto packed = sparse::pack_indices(a.idcs(), width);
  if (!packed.empty()) store.write_block(main.idcs, packed.data(), packed.size());
  if (!a.vals().empty()) {
    store.write_doubles(main.vals, a.vals().data(), a.vals().size());
  }
  if (b.storage_elems() > 0) {
    store.write_doubles(main.b, b.data(), b.storage_elems());
  }
  return main;
}

addr_t tile_flag_addr(const SysCsrmmPlan& plan, unsigned buf) {
  return plan.flags_addr + 8ull * buf;
}
addr_t done_flag_addr(const SysCsrmmPlan& plan, unsigned worker) {
  return plan.flags_addr + 8ull * (2 + worker);
}

unsigned log2_exact(std::uint32_t v) {
  assert(v != 0 && (v & (v - 1)) == 0);
  unsigned s = 0;
  while ((1u << s) < v) ++s;
  return s;
}

/// One worker's program: per phase, per tile — poll the tile generation,
/// run one CsrMV body per valid block column over the worker's row share
/// (ISSR data base at &Bblk[0][k], index shift log2(cb)), fence, publish.
isa::Program build_csrmm_worker(const sparse::CsrMatrix& a,
                                const SysCsrmmPlan& plan,
                                const SysCsrmmConfig& cfg,
                                std::uint32_t b_cols, unsigned worker) {
  const unsigned iw = sparse::index_bytes(cfg.width);
  const unsigned W = cfg.system.cluster.num_workers;
  const std::uint32_t cb = plan.col_block;
  const unsigned shift = log2_exact(cb);
  const std::size_t T = plan.tiles.size();
  Assembler as;

  for (std::uint32_t p = 0; p < plan.num_phases; ++p) {
    const std::uint32_t valid = std::min<std::uint32_t>(cb, b_cols - p * cb);
    for (std::size_t t = 0; t < T; ++t) {
      const auto& tile = plan.tiles[t];
      const std::uint64_t g = static_cast<std::uint64_t>(p) * T + t;
      const unsigned b = static_cast<unsigned>(g % 2);
      const std::uint32_t tile_rows = tile.row_end - tile.row_begin;

      const std::uint32_t r0 =
          tile.row_begin +
          static_cast<std::uint32_t>(
              (static_cast<std::uint64_t>(tile_rows) * worker) / W);
      const std::uint32_t r1 =
          tile.row_begin +
          static_cast<std::uint32_t>(
              (static_cast<std::uint64_t>(tile_rows) * (worker + 1)) / W);

      // Wait for generation g+1 of buffer b (backed-off poll as in the
      // CsrMV shard program).
      as.li(kT2, static_cast<std::int64_t>(g + 1));
      as.li(kT3, static_cast<std::int64_t>(tile_flag_addr(plan, b)));
      Label poll = as.here();
      as.ld(kT0, kT3, 0);
      for (int i = 0; i < 6; ++i) as.nop();
      as.blt(kT0, kT2, poll);

      if (r1 > r0) {
        const std::uint64_t local_nnz_off = a.ptr()[r0] - tile.nnz_begin;
        for (std::uint32_t k = 0; k < valid; ++k) {
          CsrmvRange range;
          range.ptr_addr =
              plan.buf[b].ptr_addr + 4ull * (r0 - tile.row_begin);
          range.row_count = r1 - r0;
          range.range_nnz = a.ptr()[r1] - a.ptr()[r0];
          range.vals_addr = plan.buf[b].vals_addr + 8ull * local_nnz_off;
          range.idcs_addr = plan.buf[b].idcs_addr +
                            static_cast<std::uint64_t>(iw) * local_nnz_off;
          range.x_addr = plan.b_addr + 8ull * k;
          range.x_shift = shift;
          range.y_addr =
              plan.buf[b].y_addr +
              8ull * (static_cast<std::uint64_t>(r0 - tile.row_begin) * cb + k);
          range.y_stride = 8ll * cb;
          range.width = cfg.width;
          kernels::emit_csrmv_range(as, cfg.variant, range);
        }
        // Store fence (see csrmv_shard.cpp): order the FP-side result
        // stores before the done-flag publish.
        const addr_t last_y =
            plan.buf[b].y_addr +
            8ull * (static_cast<std::uint64_t>(r1 - 1 - tile.row_begin) * cb +
                    (valid - 1));
        as.li(kT4, static_cast<std::int64_t>(last_y));
        as.fld(kFt3, kT4, 0);
        kernels::emit_fpss_sync(as);
      }

      as.li(kT0, static_cast<std::int64_t>(g + 1));
      as.li(kT1, static_cast<std::int64_t>(done_flag_addr(plan, worker)));
      as.sd(kT0, kT1, 0);
    }
  }

  if (cfg.variant != Variant::kBase) {
    kernels::emit_sync_and_disable(as);
  }
  kernels::emit_halt(as);
  return as.assemble();
}

/// DMCC model for one cluster's 2-D tiled CsrMM shard: per phase, load
/// the B block, stream the shard's A tiles double-buffered, write the Y
/// tile slices back, then hold at the inter-cluster barrier. The final
/// phase's barrier doubles as run completion.
class CsrmmShardController {
 public:
  CsrmmShardController(const SysCsrmmPlan& plan, const CsrmmMainLayout& main,
                       const sparse::CsrMatrix& a, std::uint32_t b_cols,
                       std::uint32_t ldb, unsigned num_workers, unsigned iw,
                       SysBarrier& bar, unsigned idx)
      : plan_(plan),
        main_(main),
        a_(a),
        b_cols_(b_cols),
        ldb_(ldb),
        num_workers_(num_workers),
        iw_(iw),
        bar_(&bar),
        idx_(idx) {}

  void operator()(Cluster& cl, cycle_t now);

  /// Seam probe (Cluster::set_controller_seam_probe). Mid-phase ticks are
  /// bounded by local DMA completions (the tiles_done->arrive tick is a
  /// writeback completion); an empty shard arrives at its first tick and
  /// re-arrives inside each release-consumption tick, so between ticks it
  /// is always `arrived_`; once arrived, hold until the release cycle is
  /// decided, then seam exactly at it.
  cycle_t seam_probe(cycle_t now) const {
    if (finished_) return kCycleNever;
    if (!started_) return now;
    if (arrived_) {
      const cycle_t hint = bar_->release_hint(idx_);
      return hint == kCycleNever ? kCycleHold : hint;
    }
    return kCycleNever;
  }

 private:
  enum class BufState { kIdle, kLoading, kReady, kWritingBack };

  std::uint64_t gen_of(std::size_t tile) const {
    return static_cast<std::uint64_t>(phase_) * plan_.tiles.size() + tile;
  }

  void start_phase(Cluster& cl) {
    auto& dma = cl.dma();
    const std::uint32_t valid =
        std::min<std::uint32_t>(plan_.col_block, b_cols_ - phase_ * plan_.col_block);
    // The B block rides the inbound channel ahead of the tile loads, so
    // the first tile flag cannot publish before the block has landed.
    dma.start_2d(plan_.b_addr, main_.b + 8ull * phase_ * plan_.col_block,
                 8ull * valid, a_.cols(), 8ll * plan_.col_block, 8ll * ldb_);
    queued_in_ += 1;
    next_tile_ = 0;
    tiles_done_ = 0;
    if (next_tile_ < plan_.tiles.size()) start_tile_load(cl, next_tile_++);
    if (next_tile_ < plan_.tiles.size()) start_tile_load(cl, next_tile_++);
  }

  void start_tile_load(Cluster& cl, std::size_t tile) {
    const auto& t = plan_.tiles[tile];
    const unsigned b = static_cast<unsigned>(gen_of(tile) % 2);
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

  const SysCsrmmPlan& plan_;
  CsrmmMainLayout main_;
  const sparse::CsrMatrix& a_;
  std::uint32_t b_cols_;
  std::uint32_t ldb_;
  unsigned num_workers_;
  unsigned iw_;
  SysBarrier* bar_;
  unsigned idx_;

  bool started_ = false;
  std::uint32_t phase_ = 0;
  bool arrived_ = false;
  std::uint64_t queued_in_ = 0;
  std::uint64_t queued_out_ = 0;
  BufState state_[2] = {BufState::kIdle, BufState::kIdle};
  std::size_t buf_tile_[2] = {0, 0};
  std::uint64_t load_marker_[2] = {0, 0};
  std::uint64_t wb_marker_[2] = {0, 0};
  std::size_t next_tile_ = 0;
  std::size_t tiles_done_ = 0;
  bool finished_ = false;
};

void CsrmmShardController::operator()(Cluster& cl, cycle_t now) {
  if (finished_) return;
  auto& dma = cl.dma();
  auto& store = cl.tcdm().store();
  const std::size_t T = plan_.tiles.size();

  if (!started_) {
    started_ = true;
    cl.set_controller_done(false);
    if (T > 0) {
      start_phase(cl);
    } else {
      // Empty shard: participate in every phase barrier and nothing else.
      arrived_ = true;
      bar_->arrive(idx_, now);
    }
  }

  if (arrived_) {
    if (bar_->released(idx_, now)) {
      arrived_ = false;
      ++phase_;
      if (phase_ >= plan_.num_phases) {
        finished_ = true;
        cl.set_controller_done(true);
        return;
      }
      if (T > 0) {
        start_phase(cl);
      } else {
        arrived_ = true;
        bar_->arrive(idx_, now);
      }
    } else {
      // Parked on the phase barrier: declare the wake-up cycle so the
      // system engine can fast-forward the release latency.
      cl.set_controller_idle_until(bar_->release_hint(idx_));
    }
    return;
  }

  for (unsigned b = 0; b < 2; ++b) {
    switch (state_[b]) {
      case BufState::kLoading:
        if (dma.completed_in() >= load_marker_[b]) {
          store.store_u64(tile_flag_addr(plan_, b), gen_of(buf_tile_[b]) + 1);
          state_[b] = BufState::kReady;
        }
        break;
      case BufState::kReady: {
        bool all_done = true;
        for (unsigned w = 0; w < num_workers_; ++w) {
          if (store.load_u64(done_flag_addr(plan_, w)) <
              gen_of(buf_tile_[b]) + 1) {
            all_done = false;
            break;
          }
        }
        if (all_done) {
          const auto& t = plan_.tiles[buf_tile_[b]];
          const std::uint32_t valid = std::min<std::uint32_t>(
              plan_.col_block, b_cols_ - phase_ * plan_.col_block);
          dma.start_2d(
              main_.y +
                  8ull * (static_cast<std::uint64_t>(t.row_begin) * b_cols_ +
                          static_cast<std::uint64_t>(phase_) * plan_.col_block),
              plan_.buf[b].y_addr, 8ull * valid, t.row_end - t.row_begin,
              8ll * b_cols_, 8ll * plan_.col_block);
          wb_marker_[b] = ++queued_out_;
          state_[b] = BufState::kWritingBack;
        }
        break;
      }
      case BufState::kWritingBack:
        if (dma.completed_out() >= wb_marker_[b]) {
          ++tiles_done_;
          state_[b] = BufState::kIdle;
          if (next_tile_ < T) start_tile_load(cl, next_tile_++);
        }
        break;
      case BufState::kIdle:
        break;
    }
  }

  if (tiles_done_ == T) {
    arrived_ = true;
    bar_->arrive(idx_, now);
  }
}

// ---------------------------------------------------------------------------
// Dynamic work stealing (system/steal.hpp): one fine-grained global tile
// plan, per-phase shared claim queues, and mailbox dispatch. Mirrors the
// CsrMV steal path in system/csrmv_sys.cpp with the column-phase
// dimension added; the done value travels as the mailbox argument
// because a (tile, buffer) body is shared by every phase.

/// One worker's steal-mode program and dispatch table. Bodies come in up
/// to two kinds: the full col_block and (when b_cols is not a multiple)
/// the partial last phase.
struct StealMmWorkerImage {
  std::shared_ptr<const isa::Program> program;
  std::vector<addr_t> body_pc[2];  ///< [kind][2 * tile + buffer]
  addr_t epilogue_pc = 0;
};

StealMmWorkerImage build_steal_csrmm_worker(const sparse::CsrMatrix& a,
                                            const SysCsrmmPlan& plan,
                                            const SysCsrmmConfig& cfg,
                                            std::uint32_t b_cols,
                                            unsigned worker) {
  const unsigned iw = sparse::index_bytes(cfg.width);
  const unsigned W = cfg.system.cluster.num_workers;
  const std::uint32_t cb = plan.col_block;
  const unsigned shift = log2_exact(cb);
  const std::size_t T = plan.tiles.size();
  const std::uint32_t partial =
      b_cols % cb == 0 ? cb : b_cols % cb;  // valid cols of the last phase
  Assembler as;
  StealMmWorkerImage img;

  // Idle loop: poll the mailbox, stash the argument (the done value —
  // phase-dependent, so it cannot be compiled into the shared body) in
  // the scratch word, consume, jump.
  const addr_t mbox = steal_mailbox_pc(plan.flags_addr, worker);
  Label loop = as.here();
  as.li(kT3, static_cast<std::int64_t>(mbox));
  as.ld(kT0, kT3, 0);
  for (int i = 0; i < 6; ++i) as.nop();
  as.beq(kT0, kZero, loop);
  as.ld(kT1, kT3, 8);
  as.sd(kT1, kT3, 16);
  as.sd(kZero, kT3, 0);
  as.jalr(kZero, kT0, 0);

  const unsigned kinds = partial == cb ? 1 : 2;
  for (unsigned kind = 0; kind < kinds; ++kind) {
    const std::uint32_t valid = kind == 0 ? std::min(cb, b_cols) : partial;
    img.body_pc[kind].resize(T * 2, 0);
    for (std::size_t t = 0; t < T; ++t) {
      const auto& tile = plan.tiles[t];
      const std::uint32_t tile_rows = tile.row_end - tile.row_begin;
      const std::uint32_t r0 =
          tile.row_begin +
          static_cast<std::uint32_t>(
              (static_cast<std::uint64_t>(tile_rows) * worker) / W);
      const std::uint32_t r1 =
          tile.row_begin +
          static_cast<std::uint32_t>(
              (static_cast<std::uint64_t>(tile_rows) * (worker + 1)) / W);

      for (unsigned b = 0; b < 2; ++b) {
        img.body_pc[kind][2 * t + b] =
            Program::kBaseAddr + 4 * static_cast<addr_t>(as.position());
        if (r1 > r0) {
          const std::uint64_t local_nnz_off = a.ptr()[r0] - tile.nnz_begin;
          for (std::uint32_t k = 0; k < valid; ++k) {
            CsrmvRange range;
            range.ptr_addr =
                plan.buf[b].ptr_addr + 4ull * (r0 - tile.row_begin);
            range.row_count = r1 - r0;
            range.range_nnz = a.ptr()[r1] - a.ptr()[r0];
            range.vals_addr = plan.buf[b].vals_addr + 8ull * local_nnz_off;
            range.idcs_addr = plan.buf[b].idcs_addr +
                              static_cast<std::uint64_t>(iw) * local_nnz_off;
            range.x_addr = plan.b_addr + 8ull * k;
            range.x_shift = shift;
            range.y_addr =
                plan.buf[b].y_addr +
                8ull *
                    (static_cast<std::uint64_t>(r0 - tile.row_begin) * cb + k);
            range.y_stride = 8ll * cb;
            range.width = cfg.width;
            kernels::emit_csrmv_range(as, cfg.variant, range);
          }
          const addr_t last_y =
              plan.buf[b].y_addr +
              8ull * (static_cast<std::uint64_t>(r1 - 1 - tile.row_begin) * cb +
                      (valid - 1));
          as.li(kT4, static_cast<std::int64_t>(last_y));
          as.fld(kFt3, kT4, 0);
          kernels::emit_fpss_sync(as);
        }
        // Publish done = the dispatched generation + 1 (stashed above).
        as.li(kT3, static_cast<std::int64_t>(mbox));
        as.ld(kT0, kT3, 16);
        as.li(kT1, static_cast<std::int64_t>(
                       steal_done_flag(plan.flags_addr, W, worker)));
        as.sd(kT0, kT1, 0);
        as.j(loop);
      }
    }
  }

  img.epilogue_pc =
      Program::kBaseAddr + 4 * static_cast<addr_t>(as.position());
  if (cfg.variant != Variant::kBase) {
    kernels::emit_sync_and_disable(as);
  }
  kernels::emit_halt(as);
  img.program = std::make_shared<const isa::Program>(as.assemble());
  return img;
}

/// DMCC model for one cluster's stealing CsrMM: per phase, load the B
/// block, claim tiles from that phase's queue, dispatch loaded tiles in
/// grant order through the mailboxes, 2-D-write the Y slices back, and
/// arrive at the phase barrier once the queue is drained. The halt
/// epilogue is dispatched before the final phase's arrival.
class StealCsrmmController {
 public:
  StealCsrmmController(const SysCsrmmPlan& plan, const CsrmmMainLayout& main,
                       const sparse::CsrMatrix& a, std::uint32_t b_cols,
                       std::uint32_t ldb,
                       const std::vector<StealMmWorkerImage>* images,
                       std::shared_ptr<std::vector<SysWorkQueue>> queues,
                       SysBarrier& bar, mem::Interconnect& noc, unsigned idx,
                       unsigned workers, unsigned index_bytes)
      : plan_(plan),
        main_(main),
        a_(a),
        b_cols_(b_cols),
        ldb_(ldb),
        images_(images),
        queues_(std::move(queues)),
        bar_(&bar),
        noc_(&noc),
        idx_(idx),
        workers_(workers),
        iw_(index_bytes) {
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
      start_phase(cl);
    }

    if (arrived_) {
      if (bar_->released(idx_, now)) {
        arrived_ = false;
        ++phase_;
        if (phase_ >= plan_.num_phases) {
          passed_ = true;
          cl.set_controller_done(true);
          return;
        }
        start_phase(cl);
      } else {
        cl.set_controller_idle_until(bar_->release_hint(idx_));
      }
      return;
    }

    if (!phase_done_) {
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
      const unsigned busy = (state_[0] != BufState::kIdle ? 1u : 0u) +
                            (state_[1] != BufState::kIdle ? 1u : 0u);
      if (!exhausted_ && !q.outstanding(idx_) &&
          granted_.size() + busy < 3) {
        q.try_request(idx_, now, *noc_);
      }

      while (!granted_.empty()) {
        unsigned b = 2;
        if (state_[0] == BufState::kIdle) {
          b = 0;
        } else if (state_[1] == BufState::kIdle) {
          b = 1;
        }
        if (b == 2) break;
        start_tile_load(cl, b, granted_.front());
        granted_.pop_front();
        dispatch_.push_back(b);
      }

      const std::uint32_t valid = std::min<std::uint32_t>(
          plan_.col_block, b_cols_ - phase_ * plan_.col_block);
      for (unsigned b = 0; b < 2; ++b) {
        switch (state_[b]) {
          case BufState::kLoading:
            if (dma.completed_in() >= load_marker_[b]) {
              state_[b] = BufState::kReady;
            }
            break;
          case BufState::kReady: {
            // All done counters past this generation = every worker
            // consumed its dispatch and finished its share.
            const std::uint64_t gen =
                static_cast<std::uint64_t>(phase_) * T + buf_tile_[b];
            bool all_done = true;
            for (unsigned w = 0; w < workers_; ++w) {
              if (store.load_u64(steal_done_flag(plan_.flags_addr, workers_,
                                                 w)) < gen + 1) {
                all_done = false;
                break;
              }
            }
            if (all_done) {
              const auto& t = plan_.tiles[buf_tile_[b]];
              dma.start_2d(
                  main_.y +
                      8ull *
                          (static_cast<std::uint64_t>(t.row_begin) * b_cols_ +
                           static_cast<std::uint64_t>(phase_) *
                               plan_.col_block),
                  plan_.buf[b].y_addr, 8ull * valid, t.row_end - t.row_begin,
                  8ll * b_cols_, 8ll * plan_.col_block);
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

      // Per-worker dispatch (see StealCsrmvController in csrmv_sys.cpp):
      // fast workers run ahead into the other buffer while stragglers
      // finish; generations stay monotone because grants arrive in
      // increasing tile order and phases only advance forward.
      for (unsigned w = 0; w < workers_; ++w) {
        if (next_idx_[w] >= dispatch_.size()) continue;
        const unsigned b = dispatch_[next_idx_[w]];
        if (state_[b] != BufState::kReady) continue;
        const addr_t mbox = steal_mailbox_pc(plan_.flags_addr, w);
        if (store.load_u64(mbox) != 0) continue;
        const unsigned kind = valid == plan_.col_block ? 0 : 1;
        const std::uint64_t gen =
            static_cast<std::uint64_t>(phase_) * T + buf_tile_[b];
        // Argument before pc: the worker reads it only after seeing a
        // nonzero pc.
        store.store_u64(steal_mailbox_arg(plan_.flags_addr, w), gen + 1);
        store.store_u64(mbox,
                        (*images_)[w].body_pc[kind][2ull * buf_tile_[b] + b]);
        ++next_idx_[w];
      }

      if (exhausted_ && granted_.empty() && !q.outstanding(idx_) &&
          state_[0] == BufState::kIdle && state_[1] == BufState::kIdle) {
        phase_done_ = true;
      }
    }

    if (phase_done_) {
      const bool last = phase_ + 1 == plan_.num_phases;
      if (last && !all_halted_) {
        for (unsigned w = 0; w < workers_; ++w) {
          if (ep_mask_ & (1u << w)) continue;
          const addr_t mbox = steal_mailbox_pc(plan_.flags_addr, w);
          if (store.load_u64(mbox) != 0) continue;
          store.store_u64(mbox, (*images_)[w].epilogue_pc);
          ep_mask_ |= 1u << w;
        }
        if (ep_mask_ == (1u << workers_) - 1) all_halted_ = true;
      }
      if (!last || all_halted_) {
        phase_done_ = false;
        arrived_ = true;
        bar_->arrive(idx_, now);
      }
    }
  }

  /// Seam probe (Cluster::set_controller_seam_probe). Mirrors the CsrMV
  /// steal probe with the phase dimension added: the active phase's claim
  /// queue is touched by try_request whenever a claim slot is free and by
  /// poll from the grant's precomputed delivery cycle; a phase_done_ that
  /// persists between ticks only happens in the last-phase epilogue,
  /// whose dispatch (and arrive) ticks are worker-paced. Non-last phases
  /// arrive inside the (coordinated) tick that drains the phase.
  cycle_t seam_probe(cycle_t now) const {
    if (passed_) return kCycleNever;
    if (!started_) return now;
    if (arrived_) {
      const cycle_t hint = bar_->release_hint(idx_);
      return hint == kCycleNever ? kCycleHold : hint;
    }
    if (!phase_done_) {
      const SysWorkQueue& q = (*queues_)[phase_];
      if (q.outstanding(idx_)) return q.ready_at(idx_);
      const unsigned busy = (state_[0] != BufState::kIdle ? 1u : 0u) +
                            (state_[1] != BufState::kIdle ? 1u : 0u);
      if (!exhausted_ && granted_.size() + busy < 3) return now;
      return kCycleNever;  // next capacity change hangs off a DMA event
    }
    return now;  // last-phase epilogue: the arrive tick is worker-paced
  }

 private:
  enum class BufState { kIdle, kLoading, kReady, kWritingBack };

  void start_phase(Cluster& cl) {
    auto& dma = cl.dma();
    const std::uint32_t valid = std::min<std::uint32_t>(
        plan_.col_block, b_cols_ - phase_ * plan_.col_block);
    dma.start_2d(plan_.b_addr, main_.b + 8ull * phase_ * plan_.col_block,
                 8ull * valid, a_.cols(), 8ll * plan_.col_block, 8ll * ldb_);
    queued_in_ += 1;
    exhausted_ = plan_.tiles.empty();
    dispatch_.clear();
    std::fill(next_idx_.begin(), next_idx_.end(), 0);
  }

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

  const SysCsrmmPlan& plan_;
  CsrmmMainLayout main_;
  const sparse::CsrMatrix& a_;
  std::uint32_t b_cols_;
  std::uint32_t ldb_;
  const std::vector<StealMmWorkerImage>* images_;
  std::shared_ptr<std::vector<SysWorkQueue>> queues_;
  SysBarrier* bar_;
  mem::Interconnect* noc_;
  unsigned idx_;
  unsigned workers_;
  unsigned iw_;

  bool started_ = false;
  std::uint32_t phase_ = 0;
  bool exhausted_ = false;
  bool phase_done_ = false;
  bool all_halted_ = false;
  bool arrived_ = false;
  bool passed_ = false;
  std::uint64_t queued_in_ = 0;
  std::uint64_t queued_out_ = 0;
  BufState state_[2] = {BufState::kIdle, BufState::kIdle};
  std::uint32_t buf_tile_[2] = {0, 0};
  std::uint64_t load_marker_[2] = {0, 0};
  std::uint64_t wb_marker_[2] = {0, 0};
  std::deque<std::uint32_t> granted_;
  /// Buffers in grant order within the current phase; entry i is the
  /// i-th tile this cluster won this phase.
  std::vector<unsigned> dispatch_;
  /// Per worker: the next dispatch_ entry it has not been handed yet.
  std::vector<std::size_t> next_idx_ = std::vector<std::size_t>(workers_, 0);
  std::uint32_t ep_mask_ = 0;
};

}  // namespace

SysCsrmmPlan plan_csrmm_shard(const sparse::CsrMatrix& a,
                              std::uint32_t b_cols, const SysCsrmmConfig& cfg,
                              std::uint32_t row_begin, std::uint32_t row_end,
                              unsigned extra_flag_words,
                              std::uint64_t tile_cost_target) {
  assert(row_begin <= row_end && row_end <= a.rows());
  assert(b_cols >= 1);
  const unsigned iw = sparse::index_bytes(cfg.width);
  const auto& tcdm = cfg.system.cluster.tcdm;
  const unsigned W = cfg.system.cluster.num_workers;

  SysCsrmmPlan plan;
  std::uint32_t cb = cfg.col_block;
  if (cb == 0) {
    cb = 1;
    while (cb * 2 <= std::min<std::uint32_t>(b_cols, 8)) cb *= 2;
  }
  assert((cb & (cb - 1)) == 0 && "col_block must be a power of two");
  plan.col_block = cb;
  plan.num_phases = (b_cols + cb - 1) / cb;

  addr_t cursor = tcdm.base;
  auto take = [&](std::uint64_t bytes) {
    const addr_t at = align_up(cursor, 8);
    cursor = at + bytes;
    return at;
  };
  plan.b_addr = take(8ull * a.cols() * cb);
  plan.flags_addr = take(8ull * (2 + extra_flag_words + W));

  const std::uint64_t ptr_region = align_up(4ull * (cfg.max_tile_rows + 1), 8);
  const std::uint64_t y_region = 8ull * cfg.max_tile_rows * cb;
  const std::uint64_t used =
      (cursor - tcdm.base) + 2 * (ptr_region + y_region) + 64;
  assert(used < tcdm.size_bytes() && "TCDM too small for this B block size");
  const std::uint64_t stream_budget = (tcdm.size_bytes() - used) / 2;
  plan.tile_nnz_capacity = stream_budget / (8 + iw);
  assert(plan.tile_nnz_capacity >= a.max_row_nnz() &&
         "a single row exceeds the tile buffer capacity");

  for (auto& buf : plan.buf) {
    buf.ptr_addr = take(ptr_region);
    buf.y_addr = take(y_region);
    buf.vals_addr = take(8ull * plan.tile_nnz_capacity);
    buf.idcs_addr =
        take(static_cast<std::uint64_t>(iw) * plan.tile_nnz_capacity);
  }
  assert(cursor <= tcdm.base + tcdm.size_bytes());

  std::uint32_t r = row_begin;
  while (r < row_end) {
    std::uint32_t end = r;
    while (end < row_end && end - r < cfg.max_tile_rows &&
           a.ptr()[end + 1] - a.ptr()[r] <= plan.tile_nnz_capacity &&
           (tile_cost_target == 0 || end == r ||
            (a.ptr()[end + 1] - a.ptr()[r]) +
                    cluster::kRowCostOverhead * (end + 1 - r) <=
                tile_cost_target)) {
      ++end;
    }
    assert(end > r);
    plan.tiles.push_back({r, end, a.ptr()[r], a.ptr()[end]});
    r = end;
  }
  return plan;
}

SysCsrmmResult run_csrmm_system(const sparse::CsrMatrix& a,
                                const sparse::DenseMatrix& b,
                                const SysCsrmmConfig& cfg) {
  assert(a.cols() <= b.rows());
  assert(cfg.width == IndexWidth::kU32 || a.fits_u16());
  const unsigned iw = sparse::index_bytes(cfg.width);
  const unsigned n = cfg.system.num_clusters;
  const unsigned workers = cfg.system.cluster.num_workers;
  const auto b_cols = static_cast<std::uint32_t>(b.cols());

  SysCsrmmResult result;
  result.shard_begin = partition_rows_balanced(a, n);
  result.steal = cfg.steal && n > 1;

  std::vector<std::vector<std::shared_ptr<const isa::Program>>> programs(n);
  std::vector<StealMmWorkerImage> images;
  if (result.steal) {
    std::uint64_t total = 0;
    for (std::uint32_t r = 0; r < a.rows(); ++r) {
      total += (a.ptr()[r + 1] - a.ptr()[r]) + cluster::kRowCostOverhead;
    }
    const std::uint64_t shares =
        static_cast<std::uint64_t>(n) *
        (cfg.steal_tiles_per_cluster == 0 ? 1 : cfg.steal_tiles_per_cluster);
    std::uint64_t target = total / shares;
    if (target == 0) target = 1;
    SysCsrmmPlan plan = plan_csrmm_shard(
        a, b_cols, cfg, 0, a.rows(), steal_flag_words(workers), target);
    steal_order_tiles(plan.tiles);  // LPT: monster tiles claimed first
    for (unsigned w = 0; w < workers; ++w) {
      images.push_back(build_steal_csrmm_worker(a, plan, cfg, b_cols, w));
    }
    for (unsigned c = 0; c < n; ++c) {
      result.plans.push_back(plan);
      for (unsigned w = 0; w < workers; ++w) {
        programs[c].push_back(images[w].program);
      }
    }
  } else {
    for (unsigned c = 0; c < n; ++c) {
      result.plans.push_back(plan_csrmm_shard(
          a, b_cols, cfg, result.shard_begin[c], result.shard_begin[c + 1]));
      for (unsigned w = 0; w < workers; ++w) {
        programs[c].push_back(std::make_shared<const isa::Program>(
            build_csrmm_worker(a, result.plans[c], cfg, b_cols, w)));
      }
    }
  }

  System sys(cfg.system, std::move(programs));
  const CsrmmMainLayout main =
      stage_csrmm_main(sys.main_mem().store(), a, b, cfg.width);

  std::shared_ptr<std::vector<SysWorkQueue>> queues;
  if (result.steal) {
    const auto T = static_cast<std::uint32_t>(result.plans[0].tiles.size());
    queues = std::make_shared<std::vector<SysWorkQueue>>();
    for (std::uint32_t p = 0; p < result.plans[0].num_phases; ++p) {
      queues->emplace_back(T, n, sys.noc().link_latency());
    }
    for (unsigned c = 0; c < n; ++c) {
      auto ctl = std::make_shared<StealCsrmmController>(
          result.plans[c], main, a, b_cols, static_cast<std::uint32_t>(b.ld()),
          &images, queues, sys.barrier(), sys.noc(), c, workers, iw);
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
      auto ctl = std::make_shared<CsrmmShardController>(
          result.plans[c], main, a, b_cols, static_cast<std::uint32_t>(b.ld()),
          workers, iw, sys.barrier(), c);
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

  result.system = sys.run();
  if (queues) {
    for (const auto& q : *queues) {
      result.tile_owner.insert(result.tile_owner.end(), q.owners().begin(),
                               q.owners().end());
    }
  }
  result.y = sparse::DenseMatrix(a.rows(), b_cols);
  if (a.rows() > 0 && b_cols > 0) {
    sys.main_mem().store().read_doubles(
        main.y, result.y.data(), static_cast<std::size_t>(a.rows()) * b_cols);
  }
  return result;
}

}  // namespace issr::system
