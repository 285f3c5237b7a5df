// The tile machinery of the paper's double-buffered scheme (§IV-B), shared
// by every kernel that streams A through a cluster's TCDM in row tiles:
// main-memory operand staging, the tile planner, the worker row shares,
// the per-tile CsrMV body, the static worker program and the DMA jobs.
// The DMCC controllers that drive them (static and stealing) live with the
// System (system/csrmv_sys.cpp, system/steal.hpp), which runs every
// cluster, a single one included. CsrMM (system/csrmm_sys.hpp) is the same
// machinery with column phases: each phase loads a block of B's columns
// and runs one CsrMV body per block column (§III-B). CsrMV is the
// one-phase, one-column instance, so both kernels share one code path.
//
// Everything here operates on an absolute row range [row_begin, row_end)
// of the matrix — a single cluster takes the whole matrix, the System's
// static path one cost-balanced shard per cluster, its stealing path
// (system/steal.hpp) one global plan. The kernels differ only in data:
// the shapes of the dense operand and result (TileOperands), the
// row-share rule, and the column count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "isa/assembler.hpp"
#include "kernels/csrmv.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace issr::cluster {

/// A tile kernel's planning view and run knobs.
struct McCsrmvConfig {
  kernels::Variant variant = kernels::Variant::kIssr;
  sparse::IndexWidth width = sparse::IndexWidth::kU16;
  ClusterConfig cluster;
  /// Upper bound on rows per tile (bounds the ptr/y buffer regions).
  std::uint32_t max_tile_rows = 2048;
  /// Cycle budget for the run; 0 selects System::run's default. A run
  /// that exhausts it comes back with a kCycleLimit Fault.
  cycle_t max_cycles = 0;
  /// Deterministic fault-injection switches (sim/fault.hpp); all false =
  /// no injection, the zero-cost path.
  sim::InjectSet inject;
  /// When non-null, the run records cycle-resolved telemetry here
  /// (System::attach_trace); simulated behaviour is unaffected.
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

/// A kernel's operands in main memory (absolute rows: every cluster
/// addresses the same staged arrays) and the shape of its dense-operand
/// and result DMA jobs. The dense operand (x, or B) is row-major with
/// leading dimension x_ld elements, the result y with y_ld. CsrMV moves
/// both as 1-D jobs; CsrMM as 2-D jobs even when they are contiguous — a
/// 2-D job never moves a beat across a row, so the two shapes take
/// different cycle counts and each kernel keeps its own.
struct TileOperands {
  addr_t ptr = 0, idcs = 0, vals = 0, x = 0, y = 0;
  std::uint32_t x_rows = 0;  ///< dense-operand rows a phase loads (A's cols)
  std::uint32_t x_ld = 1;
  std::uint32_t y_ld = 1;
  unsigned index_bytes = 2;
  bool two_d = false;
};

/// Lay out and write ptr/idcs/vals and the `dense_elems` doubles of the
/// dense operand into `store` from MainMemory::kBase (64-byte aligned
/// regions; y reserved for rows x y_cols doubles, unwritten). The defaults
/// describe CsrMV's x.
TileOperands stage_operands(mem::BackingStore& store,
                            const sparse::CsrMatrix& a,
                            sparse::IndexWidth width, const double* dense,
                            std::size_t dense_elems, std::uint32_t dense_ld = 1,
                            std::uint32_t y_cols = 1, bool two_d = false);

/// Per-row cost beyond its nonzeros: loop overhead, pointer fetch, and
/// the result store (mirrors the rows*8 term of the sweep cost model;
/// also the unit of the steal planner's tile_cost_target below).
inline constexpr std::uint64_t kRowCostOverhead = 8;

/// Plan the TCDM layout and greedy row tiling for rows
/// [row_begin, row_end) under `cfg` (pure function; asserts if a single
/// row exceeds the tile nnz capacity). Tile row/nnz coordinates are
/// absolute, so worker programs and DMA transfers address the shared
/// staged operands directly. `num_cols` and `col_block` (a power of two)
/// set the column phases; a CsrMV plan keeps both at 1.
///
/// Two parameters serve the work-stealing System kernels
/// (system/steal.hpp) and are inert at their defaults: `extra_flag_words`
/// reserves that many additional 8-byte words between the tile-generation
/// pair and the per-worker done flags (the steal protocol's mailbox
/// words), and a nonzero `tile_cost_target` caps each tile's cost
/// (nnz + kRowCostOverhead per row) to carve the range into fine-grained
/// steal shards — a single row may still exceed it.
McTilePlan plan_tiles_range(const sparse::CsrMatrix& a,
                            const McCsrmvConfig& cfg,
                            std::uint32_t row_begin, std::uint32_t row_end,
                            unsigned extra_flag_words = 0,
                            std::uint64_t tile_cost_target = 0,
                            std::uint32_t num_cols = 1,
                            std::uint32_t col_block = 1);

/// Contiguous cost-balanced split of rows [row_begin, row_end) among
/// `workers` cores: `workers + 1` monotonic boundaries, worker w owning
/// [out[w], out[w+1]). Same cost model as the tile planner
/// (nnz + kRowCostOverhead); each boundary lands where the running cost
/// first reaches the worker's proportional target, so a power-law tile's
/// heavy rows do not pile onto whichever core owns the most rows. Every
/// row stays whole on one core, so the FP reduction order — and thus y —
/// is independent of this split. A pure function of (a, range, workers):
/// every cluster compiles the same shares at any cluster count.
std::vector<std::uint32_t> split_rows_by_cost(const sparse::CsrMatrix& a,
                                              std::uint32_t row_begin,
                                              std::uint32_t row_end,
                                              unsigned workers);

/// How a tile's rows are shared among the workers: cost-balanced
/// (split_rows_by_cost; CsrMV) or equal row counts (CsrMM).
enum class RowShare { kCostBalanced, kUniform };

/// Worker `worker`'s rows [first, second) of `tile` under `rule`.
std::pair<std::uint32_t, std::uint32_t> worker_rows(
    const sparse::CsrMatrix& a, const McTilePlan::Tile& tile, RowShare rule,
    unsigned workers, unsigned worker);

/// Emit one worker's share `rows` of `tile`, staged in buffer `buf`: one
/// CsrMV body per column k < `cols` (x at &block[0][k], ISSR index shift
/// log2(col_block), y stride col_block), then the store fence that orders
/// the FP-side result stores before a following flag publish. Emits
/// nothing for an empty share. At one column this is exactly the CsrMV
/// body over x.
void emit_tile_share(isa::Assembler& as, const sparse::CsrMatrix& a,
                     const McTilePlan& plan, const McCsrmvConfig& cfg,
                     const McTilePlan::Tile& tile, unsigned buf,
                     std::pair<std::uint32_t, std::uint32_t> rows,
                     std::uint32_t cols);

/// The static scheme's TCDM flag words: buffer `buf`'s tile generation,
/// which the controller publishes once the tile has landed, and worker
/// `worker`'s done generation, which the worker publishes once its share
/// of a tile is complete.
inline addr_t tile_flag_addr(const McTilePlan& plan, unsigned buf) {
  return plan.flags_addr + 8ull * buf;
}
inline addr_t done_flag_addr(const McTilePlan& plan, unsigned worker) {
  return plan.flags_addr + 8ull * (2 + worker);
}

/// Build one worker's static program: per phase, per tile (generation
/// g = phase * tiles + tile, staged in buffer g % 2) — poll the buffer's
/// generation flag, run the worker's share, publish done = g + 1. Ends
/// with streamer sync/disable (non-BASE) and a halt.
isa::Program build_shard_worker_program(const sparse::CsrMatrix& a,
                                        const McTilePlan& plan,
                                        const McCsrmvConfig& cfg,
                                        RowShare share, unsigned worker);

/// The DMA jobs every tile controller issues. Phase `phase`'s dense
/// operand block into plan.x_addr (one inbound job):
void dma_load_block(mem::Dma& dma, const McTilePlan& plan,
                    const TileOperands& ops, std::uint32_t phase);
/// A tile's ptr/vals/idcs into buffer `buf` (three inbound jobs):
void dma_load_tile(mem::Dma& dma, const McTilePlan& plan,
                   const TileOperands& ops, unsigned buf,
                   const McTilePlan::Tile& tile);
/// A tile's y slice of phase `phase` from buffer `buf` (one outbound job):
void dma_write_back(mem::Dma& dma, const McTilePlan& plan,
                    const TileOperands& ops, unsigned buf,
                    const McTilePlan::Tile& tile, std::uint32_t phase);

}  // namespace issr::cluster
