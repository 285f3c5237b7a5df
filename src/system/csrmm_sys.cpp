#include "system/csrmm_sys.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/bitutil.hpp"
#include "system/csrmv_sys.hpp"

namespace issr::system {

SysCsrmmResult run_csrmm_system(const sparse::CsrMatrix& a,
                                const sparse::DenseMatrix& b,
                                const SysCsrmmConfig& cfg) {
  assert(a.cols() <= b.rows());
  assert(cfg.width == sparse::IndexWidth::kU32 || a.fits_u16());
  const auto b_cols = static_cast<std::uint32_t>(b.cols());
  assert(b_cols >= 1);
  std::uint32_t cb = cfg.col_block;
  if (cb == 0) {
    cb = 1;
    while (cb * 2 <= std::min<std::uint32_t>(b_cols, 8)) cb *= 2;
  }
  assert(is_pow2(cb) && "col_block must be a power of two");

  TileKernel k;
  k.mc.variant = cfg.variant;
  k.mc.width = cfg.width;
  k.mc.cluster = cfg.system.cluster;
  k.mc.max_tile_rows = cfg.max_tile_rows;
  k.mc.trace_sink = cfg.trace_sink;
  k.share = cluster::RowShare::kUniform;
  k.num_cols = b_cols;
  k.col_block = cb;
  k.dense = b.data();
  k.dense_elems = b.storage_elems();
  k.dense_ld = static_cast<std::uint32_t>(b.ld());
  k.two_d = true;
  k.done_from_mailbox = true;

  SysCsrmmResult result;
  result.y = sparse::DenseMatrix(a.rows(), b_cols);
  TileRun run = run_tile_system(a, cfg.system, k, cfg.steal, result.y.data());
  result.system = std::move(run.system);
  result.shard_begin = std::move(run.shard_begin);
  result.plans = std::move(run.plans);
  result.steal = run.steal;
  result.tile_owner = std::move(run.tile_owner);
  return result;
}

}  // namespace issr::system
