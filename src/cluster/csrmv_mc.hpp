// Multicore CsrMV on the Snitch cluster (§IV-B): rows are distributed
// among the eight worker cores, and the matrix streams through the TCDM in
// row tiles using a double-buffered DMA scheme. All operands initially
// reside in main memory; the dense vector x is loaded once up front (its
// transfer cannot be fully overlapped — a paper-noted overhead), tile t+1
// loads while tile t computes, and each tile's result slice writes back on
// the DMA's outbound channel.
//
// Synchronization uses TCDM flag words: the DMCC controller publishes a
// per-buffer "tile generation" flag once a tile's arrays have landed, and
// each worker publishes its own generation counter once its row share is
// complete (after a store fence that orders its FP-side result stores).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "kernels/csrmv.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace issr::cluster {

struct McCsrmvConfig {
  kernels::Variant variant = kernels::Variant::kIssr;
  sparse::IndexWidth width = sparse::IndexWidth::kU16;
  ClusterConfig cluster;
  /// Upper bound on rows per tile (bounds the ptr/y buffer regions).
  std::uint32_t max_tile_rows = 2048;
  /// Cycle budget for the run; 0 selects Cluster::run's default. A run
  /// that exhausts it comes back with a kCycleLimit Fault.
  cycle_t max_cycles = 0;
  /// Deterministic fault-injection switches (sim/fault.hpp); all false =
  /// no injection, the zero-cost path.
  sim::InjectSet inject;
  /// When non-null, the run records cycle-resolved telemetry here
  /// (Cluster::attach_trace); simulated behaviour is unaffected.
  trace::TraceSink* trace_sink = nullptr;
};

/// A tile plan: the TCDM layout and the greedy row tiling every tile
/// controller (static and stealing, CsrMV and CsrMM) runs over. CsrMM adds
/// a column-block factor: B is processed `col_block` columns per phase, so
/// the dense-operand region holds a cols x col_block block and each y
/// buffer a tile_rows x col_block block (both row-major, ld = col_block).
/// CsrMV is the one-phase, one-column instance (col_block = num_cols = 1).
struct McTilePlan {
  struct Tile {
    std::uint32_t row_begin;
    std::uint32_t row_end;
    std::uint64_t nnz_begin;  ///< ptr[row_begin]
    std::uint64_t nnz_end;    ///< ptr[row_end]
  };
  std::vector<Tile> tiles;
  std::uint64_t tile_nnz_capacity = 0;
  std::uint32_t num_cols = 1;   ///< columns of the dense operand (x: 1)
  std::uint32_t col_block = 1;  ///< columns resident per phase (power of 2)
  // TCDM layout.
  addr_t x_addr = 0;      ///< dense-operand block (x, or B's column block)
  addr_t flags_addr = 0;  ///< tile_ready[2], steal words, done[num_workers]
  struct Buffer {
    addr_t ptr_addr;
    addr_t idcs_addr;
    addr_t vals_addr;
    addr_t y_addr;
  };
  /// Double buffering: the static scheme stages generation g in buf[g % 2];
  /// the stealing scheme loads each won tile into whichever is free.
  Buffer buf[2];

  /// Column phases: ceil(num_cols / col_block).
  std::uint32_t num_phases() const {
    return (num_cols + col_block - 1) / col_block;
  }
  /// Valid columns of phase `p` (col_block, or fewer in a partial last one).
  std::uint32_t phase_cols(std::uint32_t p) const {
    return std::min(col_block, num_cols - p * col_block);
  }
};

struct McCsrmvResult {
  ClusterResult cluster;
  sparse::DenseVector y;
  McTilePlan plan;
};

/// Plan the tiling for a matrix under a configuration (pure function;
/// asserts if a single row exceeds the tile nnz capacity).
McTilePlan plan_tiles(const sparse::CsrMatrix& a, const McCsrmvConfig& cfg);

/// Run y = A*x on the simulated cluster.
McCsrmvResult run_csrmv_multicore(const sparse::CsrMatrix& a,
                                  const sparse::DenseVector& x,
                                  const McCsrmvConfig& cfg);

}  // namespace issr::cluster
