// Cross-cluster CsrMM (Y = A*B, B dense row-major) on the hierarchical
// system model, tiled in two dimensions (§III-B's third-order loop taken
// cluster-scale):
//  - dimension 1 (rows, across clusters): A's rows are sharded by the
//    same static cost-balanced partition as csrmv_sys.hpp, or claimed
//    tile by tile from a per-phase queue under work stealing;
//  - dimension 2 (columns of B, in time): B is processed in power-of-two
//    column blocks. Per phase, each cluster 2-D-DMAs the block's C x cb
//    slice of B into its TCDM, streams its A tiles through the
//    double-buffered scheme, and runs one CsrMV body per block column
//    (ISSR index shift log2(cb) addresses the TCDM-resident block), then
//    2-D-DMAs its Y tile slice back to shared main memory.
// It runs on the System tile machinery CsrMV uses (run_tile_system in
// csrmv_sys.hpp): CsrMV is its one-phase, one-column instance. Clusters
// synchronize on the inter-cluster barrier between column phases, so no
// cluster's phase-p+1 B-block load can race ahead while another still
// streams phase p — which also bounds the burstiness the shared memory
// sees. The final phase's barrier doubles as completion.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/csrmv_mc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "system/system.hpp"

namespace issr::system {

struct SysCsrmmConfig {
  kernels::Variant variant = kernels::Variant::kIssr;
  sparse::IndexWidth width = sparse::IndexWidth::kU16;
  SystemConfig system;
  /// Upper bound on rows per tile within each cluster's shard.
  std::uint32_t max_tile_rows = 512;
  /// Columns of B per phase (power of two; 0 = auto: the largest power
  /// of two <= min(b.cols, 8)).
  std::uint32_t col_block = 0;
  /// Dynamic inter-cluster work stealing per column phase
  /// (system/steal.hpp): tiles of a fine-grained global plan are
  /// claimed from a per-phase shared queue instead of the static row
  /// partition. Only engages for num_clusters > 1.
  bool steal = true;
  trace::TraceSink* trace_sink = nullptr;
};

struct SysCsrmmResult {
  SystemResult system;
  sparse::DenseMatrix y;  ///< rows x b_cols, ld = b_cols
  /// Static partition (with stealing: reported for comparison only).
  std::vector<std::uint32_t> shard_begin;
  /// Per-cluster plans (col_block and num_cols set the phases); with
  /// stealing every entry is the same global fine-grained plan.
  std::vector<cluster::McTilePlan> plans;
  /// True when the run used the dynamic stealing path.
  bool steal = false;
  /// Steal mode only: tile ownership per phase, flattened as
  /// [phase * num_tiles + tile] -> claiming cluster.
  std::vector<unsigned> tile_owner;
};

/// Run Y = A*B on the simulated multi-cluster system.
SysCsrmmResult run_csrmm_system(const sparse::CsrMatrix& a,
                                const sparse::DenseMatrix& b,
                                const SysCsrmmConfig& cfg);

}  // namespace issr::system
