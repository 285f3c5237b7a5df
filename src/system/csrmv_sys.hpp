// Cross-cluster CsrMV (y = A*x) on the hierarchical system model, and the
// System set-up every tile kernel shares (CsrMM, system/csrmm_sys.hpp, is
// the same run with column phases; CsrMV is its one-phase, one-column
// instance). Two schedules:
//  - static: rows are sharded across clusters by a cost-balanced
//    partition (each shard gets an equal slice of nnz-plus-row-overhead
//    work, the same balance heuristic the sweep scheduler uses), and every
//    cluster runs the paper's double-buffered tile scheme
//    (cluster/csrmv_shard.hpp) over its shard, arriving at the
//    inter-cluster barrier (system/barrier.hpp) once per column phase;
//  - stealing (system/steal.hpp): every cluster claims tiles of one
//    fine-grained global plan from a shared queue.
// Both run against the shared, bandwidth-limited main memory. Each cluster
// loads the full dense vector x into its TCDM — the row-sharded
// distribution replicates x, trading main-memory read amplification for
// zero inter-cluster communication during compute. The final barrier
// doubles as completion, so the reported cycle count includes the release
// latency a real system would pay before the result could be consumed.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/csrmv_mc.hpp"
#include "cluster/csrmv_shard.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "system/steal.hpp"
#include "system/system.hpp"

namespace issr::system {

struct SysCsrmvConfig {
  kernels::Variant variant = kernels::Variant::kIssr;
  sparse::IndexWidth width = sparse::IndexWidth::kU16;
  SystemConfig system;
  /// Upper bound on rows per tile within each cluster's shard.
  std::uint32_t max_tile_rows = 2048;
  /// Dynamic inter-cluster work stealing (system/steal.hpp) over a
  /// fine-grained global tile plan instead of the static row partition.
  /// Only engages for num_clusters > 1: a single cluster would win
  /// every tile anyway, so it always runs the static path.
  bool steal = true;
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

/// Static cost-balanced row partition: `n + 1` monotonic boundaries with
/// shard c = [out[c], out[c+1]). The per-row cost model is
/// nnz + kRowCostOverhead (streaming work plus per-row loop overhead);
/// shards of a matrix with fewer rows than clusters come back empty.
std::vector<std::uint32_t> partition_rows_balanced(const sparse::CsrMatrix& a,
                                                   unsigned n);

struct SysCsrmvResult {
  SystemResult system;
  sparse::DenseVector y;
  /// Shard boundaries (partition_rows_balanced output). With stealing
  /// this is the static partition the dynamic schedule replaced —
  /// reported for comparison, not used by the run.
  std::vector<std::uint32_t> shard_begin;
  /// Per-cluster tile plans (tiles empty for an empty shard). With
  /// stealing every entry is the same global fine-grained plan.
  std::vector<cluster::McTilePlan> plans;
  /// True when the run used the dynamic stealing path.
  bool steal = false;
  /// Steal mode only: global tile index -> the cluster that claimed it.
  std::vector<unsigned> tile_owner;
  /// Steal mode only: claim round-trip latency / NoC-denial counters of
  /// the shared work queue (zeros on the static path).
  SysQueueStats queue;
};

/// Run y = A*x on the simulated multi-cluster system.
SysCsrmvResult run_csrmv_system(const sparse::CsrMatrix& a,
                                const sparse::DenseVector& x,
                                const SysCsrmvConfig& cfg);

/// What a tile kernel hands run_tile_system: its differences from CsrMV,
/// as data. The defaults are CsrMV.
struct TileKernel {
  /// Planning view and run knobs: variant, width, cluster, max_tile_rows,
  /// max_cycles, inject, trace_sink.
  cluster::McCsrmvConfig mc;
  cluster::RowShare share = cluster::RowShare::kCostBalanced;
  std::uint32_t num_cols = 1;   ///< columns of the dense operand and y
  std::uint32_t col_block = 1;  ///< columns per phase (power of two)
  /// Dense operand (x, or B) storage and leading dimension, and the DMA
  /// job shape of its blocks and of y (cluster::TileOperands).
  const double* dense = nullptr;
  std::size_t dense_elems = 0;
  std::uint32_t dense_ld = 1;
  bool two_d = false;
  /// Stealing workers publish the done value the mailbox carries instead
  /// of a compiled-in one, as bodies shared by several phases must. CsrMM
  /// sets it at any phase count and CsrMV never: the idle loops differ by
  /// two instructions, so each kernel's cycle counts depend on its choice.
  bool done_from_mailbox = false;
};

/// The kernel-independent part of a System tile run's result.
struct TileRun {
  SystemResult system;
  std::vector<std::uint32_t> shard_begin;
  std::vector<cluster::McTilePlan> plans;
  bool steal = false;
  /// Steal mode only: [phase * num_tiles + tile] -> claiming cluster.
  std::vector<unsigned> tile_owner;
  /// Steal mode only: claim-queue counters summed over phases.
  SysQueueStats queue;
};

/// Run one tile kernel on the System: the static partition or (steal &&
/// clusters > 1) one LPT-ordered steal plan with shared worker images and
/// per-phase claim queues; stage the operands, wire every cluster's
/// controller and seam probe, run, and read y (rows x num_cols doubles)
/// back into `y`.
TileRun run_tile_system(const sparse::CsrMatrix& a, const SystemConfig& cfg,
                        const TileKernel& k, bool steal, double* y);

}  // namespace issr::system
