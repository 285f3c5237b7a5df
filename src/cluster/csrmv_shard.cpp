#include "cluster/csrmv_shard.hpp"

#include <cassert>

#include "common/bitutil.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/kargs.hpp"

namespace issr::cluster {

using namespace issr::isa;
using kernels::CsrmvRange;
using kernels::Variant;

namespace {

addr_t tile_flag_addr(const McTilePlan& plan, unsigned buf) {
  return plan.flags_addr + 8ull * buf;
}
addr_t done_flag_addr(const McTilePlan& plan, unsigned worker) {
  return plan.flags_addr + 8ull * (2 + worker);
}

/// Queue a dense block of `rows` rows of `row_bytes`: one 2-D job, or —
/// for a contiguous block — one 1-D job of the whole span.
void start_dense(mem::Dma& dma, bool two_d, addr_t dst, addr_t src,
                 std::uint64_t row_bytes, std::uint64_t rows,
                 std::int64_t dst_stride, std::int64_t src_stride) {
  if (two_d) {
    dma.start_2d(dst, src, row_bytes, rows, dst_stride, src_stride);
    return;
  }
  assert(rows <= 1 || (dst_stride == static_cast<std::int64_t>(row_bytes) &&
                       src_stride == dst_stride));
  dma.start_1d(dst, src, row_bytes * rows);
}

}  // namespace

TileOperands stage_operands(mem::BackingStore& store,
                            const sparse::CsrMatrix& a,
                            sparse::IndexWidth width, const double* dense,
                            std::size_t dense_elems, std::uint32_t dense_ld,
                            std::uint32_t y_cols, bool two_d) {
  TileOperands ops;
  ops.index_bytes = sparse::index_bytes(width);
  ops.x_rows = a.cols();
  ops.x_ld = dense_ld;
  ops.y_ld = y_cols;
  ops.two_d = two_d;
  addr_t cursor = mem::MainMemory::kBase;
  auto take = [&](std::uint64_t bytes) {
    const addr_t at = align_up(cursor, 64);
    cursor = at + bytes;
    return at;
  };
  ops.ptr = take(4ull * (a.rows() + 1));
  ops.idcs = take(static_cast<std::uint64_t>(ops.index_bytes) * a.nnz());
  ops.vals = take(8ull * a.nnz());
  ops.x = take(8ull * dense_elems);
  ops.y = take(8ull * a.rows() * y_cols);

  store.write_u32s(ops.ptr, a.ptr().data(), a.ptr().size());
  const auto packed = sparse::pack_indices(a.idcs(), width);
  if (!packed.empty()) store.write_block(ops.idcs, packed.data(), packed.size());
  if (!a.vals().empty()) {
    store.write_doubles(ops.vals, a.vals().data(), a.vals().size());
  }
  if (dense_elems > 0) store.write_doubles(ops.x, dense, dense_elems);
  return ops;
}

McTilePlan plan_tiles_range(const sparse::CsrMatrix& a,
                            const McCsrmvConfig& cfg,
                            std::uint32_t row_begin, std::uint32_t row_end,
                            unsigned extra_flag_words,
                            std::uint64_t tile_cost_target,
                            std::uint32_t num_cols, std::uint32_t col_block) {
  assert(row_begin <= row_end && row_end <= a.rows());
  assert(num_cols >= 1 && is_pow2(col_block));
  const unsigned iw = sparse::index_bytes(cfg.width);
  const auto& tcdm = cfg.cluster.tcdm;

  McTilePlan plan;
  plan.num_cols = num_cols;
  plan.col_block = col_block;
  addr_t cursor = tcdm.base;
  auto take = [&](std::uint64_t bytes) {
    const addr_t at = align_up(cursor, 8);
    cursor = at + bytes;
    return at;
  };

  plan.x_addr = take(8ull * a.cols() * col_block);
  plan.flags_addr =
      take(8ull * (2 + extra_flag_words + cfg.cluster.num_workers));

  const std::uint64_t ptr_region = align_up(4ull * (cfg.max_tile_rows + 1), 8);
  const std::uint64_t y_region = 8ull * cfg.max_tile_rows * col_block;
  const std::uint64_t used =
      (cursor - tcdm.base) + 2 * (ptr_region + y_region) + 64;
  assert(used < tcdm.size_bytes() && "TCDM too small for this operand block");
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

  // Greedy row tiling under the nnz and row caps (and, for steal plans,
  // the cost target — which a tile of a single expensive row may exceed).
  std::uint32_t r = row_begin;
  while (r < row_end) {
    std::uint32_t end = r;
    while (end < row_end && end - r < cfg.max_tile_rows &&
           a.ptr()[end + 1] - a.ptr()[r] <= plan.tile_nnz_capacity &&
           (tile_cost_target == 0 || end == r ||
            (a.ptr()[end + 1] - a.ptr()[r]) +
                    kRowCostOverhead * (end + 1 - r) <=
                tile_cost_target)) {
      ++end;
    }
    assert(end > r);
    plan.tiles.push_back({r, end, a.ptr()[r], a.ptr()[end]});
    r = end;
  }
  return plan;
}

std::vector<std::uint32_t> split_rows_by_cost(const sparse::CsrMatrix& a,
                                              std::uint32_t row_begin,
                                              std::uint32_t row_end,
                                              unsigned workers) {
  assert(workers >= 1 && row_begin <= row_end);
  std::uint64_t total = 0;
  for (std::uint32_t r = row_begin; r < row_end; ++r) {
    total += (a.ptr()[r + 1] - a.ptr()[r]) + kRowCostOverhead;
  }
  std::vector<std::uint32_t> out(workers + 1, row_end);
  out[0] = row_begin;
  std::uint64_t acc = 0;
  std::uint32_t r = row_begin;
  for (unsigned w = 0; w + 1 < workers; ++w) {
    const std::uint64_t target = total * (w + 1) / workers;
    while (r < row_end && acc < target) {
      acc += (a.ptr()[r + 1] - a.ptr()[r]) + kRowCostOverhead;
      ++r;
    }
    out[w + 1] = r;
  }
  return out;
}

std::pair<std::uint32_t, std::uint32_t> worker_rows(
    const sparse::CsrMatrix& a, const McTilePlan::Tile& tile, RowShare rule,
    unsigned workers, unsigned worker) {
  if (rule == RowShare::kCostBalanced) {
    // The paper notes residual computation imbalance from its equal-rows
    // scheme; balancing by the tile planner's cost model keeps heavy rows
    // from piling onto one core.
    const auto share =
        split_rows_by_cost(a, tile.row_begin, tile.row_end, workers);
    return {share[worker], share[worker + 1]};
  }
  const std::uint64_t rows = tile.row_end - tile.row_begin;
  return {tile.row_begin + static_cast<std::uint32_t>(rows * worker / workers),
          tile.row_begin +
              static_cast<std::uint32_t>(rows * (worker + 1) / workers)};
}

void emit_tile_share(Assembler& as, const sparse::CsrMatrix& a,
                     const McTilePlan& plan, const McCsrmvConfig& cfg,
                     const McTilePlan::Tile& tile, unsigned buf,
                     std::pair<std::uint32_t, std::uint32_t> rows,
                     std::uint32_t cols) {
  const auto [r0, r1] = rows;
  if (r1 <= r0) return;
  const std::uint64_t iw = sparse::index_bytes(cfg.width);
  const std::uint64_t cb = plan.col_block;
  const auto& b = plan.buf[buf];
  const std::uint64_t row_off = r0 - tile.row_begin;
  const std::uint64_t nnz_off = a.ptr()[r0] - tile.nnz_begin;
  for (std::uint32_t k = 0; k < cols; ++k) {
    CsrmvRange range;
    range.ptr_addr = b.ptr_addr + 4ull * row_off;
    range.row_count = r1 - r0;
    range.range_nnz = a.ptr()[r1] - a.ptr()[r0];
    range.vals_addr = b.vals_addr + 8ull * nnz_off;
    range.idcs_addr = b.idcs_addr + iw * nnz_off;
    range.x_addr = plan.x_addr + 8ull * k;
    range.x_shift = log2_exact(cb);
    range.y_addr = b.y_addr + 8ull * (row_off * cb + k);
    range.y_stride = static_cast<std::int64_t>(8 * cb);
    range.width = cfg.width;
    kernels::emit_csrmv_range(as, cfg.variant, range);
  }
  // Store fence: FP-side result stores share the FP LSU port; a load on
  // that port cannot complete before earlier stores were granted, so
  // fld + sync orders them before the done-flag write that follows.
  const addr_t last_y =
      b.y_addr + 8ull * ((r1 - 1 - tile.row_begin) * cb + (cols - 1));
  as.li(kT4, static_cast<std::int64_t>(last_y));
  as.fld(kFt3, kT4, 0);
  kernels::emit_fpss_sync(as);
}

isa::Program build_shard_worker_program(const sparse::CsrMatrix& a,
                                        const McTilePlan& plan,
                                        const McCsrmvConfig& cfg,
                                        RowShare share, unsigned worker) {
  const unsigned W = cfg.cluster.num_workers;
  const std::size_t T = plan.tiles.size();
  Assembler as;

  for (std::uint32_t p = 0; p < plan.num_phases(); ++p) {
    for (std::size_t t = 0; t < T; ++t) {
      const auto& tile = plan.tiles[t];
      const std::uint64_t g = static_cast<std::uint64_t>(p) * T + t;
      const unsigned b = static_cast<unsigned>(g % 2);

      // Wait until the controller publishes generation g+1 for buffer b.
      // The poll loop backs off with nops so eight spinning cores do not
      // saturate the flag word's bank while others compute.
      as.li(kT2, static_cast<std::int64_t>(g + 1));
      as.li(kT3, static_cast<std::int64_t>(tile_flag_addr(plan, b)));
      Label poll = as.here();
      as.ld(kT0, kT3, 0);
      for (int i = 0; i < 6; ++i) as.nop();
      as.blt(kT0, kT2, poll);

      emit_tile_share(as, a, plan, cfg, tile, b,
                      worker_rows(a, tile, share, W, worker),
                      plan.phase_cols(p));

      // Publish completion of generation g for this worker.
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

void dma_load_block(mem::Dma& dma, const McTilePlan& plan,
                    const TileOperands& ops, std::uint32_t phase) {
  const std::uint64_t cb = plan.col_block;
  start_dense(dma, ops.two_d, plan.x_addr, ops.x + 8ull * phase * cb,
              8ull * plan.phase_cols(phase), ops.x_rows,
              static_cast<std::int64_t>(8 * cb), 8ll * ops.x_ld);
}

void dma_load_tile(mem::Dma& dma, const McTilePlan& plan,
                   const TileOperands& ops, unsigned buf,
                   const McTilePlan::Tile& tile) {
  const std::uint32_t rows = tile.row_end - tile.row_begin;
  const std::uint64_t nnz = tile.nnz_end - tile.nnz_begin;
  const std::uint64_t iw = ops.index_bytes;
  dma.start_1d(plan.buf[buf].ptr_addr, ops.ptr + 4ull * tile.row_begin,
               4ull * (rows + 1));
  dma.start_1d(plan.buf[buf].vals_addr, ops.vals + 8ull * tile.nnz_begin,
               8ull * nnz);
  dma.start_1d(plan.buf[buf].idcs_addr, ops.idcs + iw * tile.nnz_begin,
               iw * nnz);
}

void dma_write_back(mem::Dma& dma, const McTilePlan& plan,
                    const TileOperands& ops, unsigned buf,
                    const McTilePlan::Tile& tile, std::uint32_t phase) {
  const std::uint64_t cb = plan.col_block;
  start_dense(dma, ops.two_d,
              ops.y + 8ull * (static_cast<std::uint64_t>(tile.row_begin) *
                                  ops.y_ld +
                              phase * cb),
              plan.buf[buf].y_addr, 8ull * plan.phase_cols(phase),
              tile.row_end - tile.row_begin, 8ll * ops.y_ld,
              static_cast<std::int64_t>(8 * cb));
}

ShardController::ShardController(const McTilePlan& plan,
                                 const TileOperands& ops,
                                 unsigned num_workers)
    : plan_(plan), ops_(ops), num_workers_(num_workers) {}

void ShardController::start_phase(Cluster& cl) {
  // The dense block rides the inbound channel ahead of the tile loads, so
  // no tile flag can publish before it has landed (for CsrMV: the x
  // transfer is not overlapped with compute).
  dma_load_block(cl.dma(), plan_, ops_, phase_);
  queued_in_ += 1;
  next_tile_ = 0;
  tiles_done_ = 0;
  phase_done_ = false;
  if (next_tile_ < plan_.tiles.size()) start_tile_load(cl, next_tile_++);
  if (next_tile_ < plan_.tiles.size()) start_tile_load(cl, next_tile_++);
}

void ShardController::next_phase(Cluster& cl) {
  assert(phase_done_ && phase_ + 1 < plan_.num_phases());
  ++phase_;
  start_phase(cl);
}

void ShardController::start_tile_load(Cluster& cl, std::size_t tile) {
  const unsigned b = static_cast<unsigned>(gen(tile) % 2);
  dma_load_tile(cl.dma(), plan_, ops_, b, plan_.tiles[tile]);
  load_marker_[b] = queued_in_ += 3;
  state_[b] = BufState::kLoading;
  buf_tile_[b] = tile;
}

void ShardController::tick(Cluster& cl) {
  if (phase_done_) return;
  if (!started_) {
    started_ = true;
    cl.set_controller_done(false);
    start_phase(cl);
  }
  auto& dma = cl.dma();
  auto& store = cl.tcdm().store();

  for (unsigned b = 0; b < 2; ++b) {
    switch (state_[b]) {
      case BufState::kLoading:
        if (dma.completed_in() >= load_marker_[b]) {
          // Publish the tile generation: workers poll for gen + 1.
          store.store_u64(tile_flag_addr(plan_, b), gen(buf_tile_[b]) + 1);
          state_[b] = BufState::kReady;
        }
        break;
      case BufState::kReady: {
        // All workers done with this tile?
        const std::uint64_t done = gen(buf_tile_[b]) + 1;
        bool all_done = true;
        for (unsigned w = 0; w < num_workers_; ++w) {
          if (store.load_u64(done_flag_addr(plan_, w)) < done) {
            all_done = false;
            break;
          }
        }
        if (all_done) {
          dma_write_back(dma, plan_, ops_, b, plan_.tiles[buf_tile_[b]],
                         phase_);
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

  if (tiles_done_ == plan_.tiles.size()) phase_done_ = true;
}

}  // namespace issr::cluster
