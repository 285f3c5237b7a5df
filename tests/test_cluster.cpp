// Cluster tests: the hardware barrier, multi-worker program execution,
// the tile planner's invariants (column phases and row shares included),
// and end-to-end multicore CsrMV equality with the golden reference
// across variants and forced multi-tile runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/barrier.hpp"
#include "cluster/csrmv_mc.hpp"
#include "cluster/csrmv_shard.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "kernels/kargs.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"
#include "sparse/suite.hpp"

namespace issr::cluster {
namespace {

using namespace issr::isa;
using kernels::Variant;
using sparse::IndexWidth;

TEST(HwBarrier, ReleasesOnlyWhenAllArrive) {
  HwBarrier b(3);
  EXPECT_FALSE(b.poll(0));
  EXPECT_FALSE(b.poll(0));  // re-poll while waiting
  EXPECT_FALSE(b.poll(1));
  EXPECT_TRUE(b.poll(2));   // last arrival releases
  EXPECT_TRUE(b.poll(0));   // waiters now pass
  EXPECT_TRUE(b.poll(1));
  EXPECT_EQ(b.generation(), 1u);
}

TEST(HwBarrier, ReusableAcrossGenerations) {
  HwBarrier b(2);
  for (int gen = 0; gen < 5; ++gen) {
    EXPECT_FALSE(b.poll(0));
    EXPECT_TRUE(b.poll(1));
    EXPECT_TRUE(b.poll(0));
  }
  EXPECT_EQ(b.generation(), 5u);
}

TEST(Cluster, WorkersShareTcdmAndBarrier) {
  // Each worker writes its hartid to a slot, barriers, then sums all
  // slots; every worker must see every other worker's write.
  ClusterConfig cfg;
  const addr_t slots = cfg.tcdm.base;
  const addr_t sums = cfg.tcdm.base + 8 * 8;
  std::vector<std::shared_ptr<const isa::Program>> programs;
  for (unsigned w = 0; w < cfg.num_workers; ++w) {
    Assembler a;
    a.csrrs(kT0, kCsrMhartid, kZero);
    a.li(kT1, static_cast<std::int64_t>(slots));
    a.slli(kT2, kT0, 3);
    a.add(kT1, kT1, kT2);
    a.sd(kT0, kT1, 0);
    kernels::emit_barrier(a);
    a.li(kT3, 0);  // sum
    a.li(kT4, static_cast<std::int64_t>(slots));
    for (unsigned i = 0; i < 8; ++i) {
      a.ld(kT5, kT4, static_cast<std::int32_t>(8 * i));
      a.add(kT3, kT3, kT5);
    }
    a.li(kT1, static_cast<std::int64_t>(sums));
    a.slli(kT2, kT0, 3);
    a.add(kT1, kT1, kT2);
    a.sd(kT3, kT1, 0);
    kernels::emit_halt(a);
    programs.push_back(std::make_shared<const isa::Program>(a.assemble()));
  }
  Cluster cluster(cfg, std::move(programs));
  const auto result = cluster.run(1'000'000);
  EXPECT_GT(result.cycles, 0u);
  for (unsigned w = 0; w < 8; ++w) {
    EXPECT_EQ(cluster.tcdm().store().load_u64(sums + 8 * w), 28u)
        << "worker " << w;
  }
}

TEST(TilePlan, CoversAllRowsWithoutOverlap) {
  Rng rng(1000);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 500, 256, 20);
  McCsrmvConfig cfg;
  cfg.max_tile_rows = 64;
  const auto plan = plan_tiles(a, cfg);
  ASSERT_FALSE(plan.tiles.empty());
  EXPECT_EQ(plan.tiles.front().row_begin, 0u);
  EXPECT_EQ(plan.tiles.back().row_end, a.rows());
  for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
    const auto& tile = plan.tiles[t];
    EXPECT_LT(tile.row_begin, tile.row_end);
    EXPECT_LE(tile.row_end - tile.row_begin, cfg.max_tile_rows);
    EXPECT_LE(tile.nnz_end - tile.nnz_begin, plan.tile_nnz_capacity);
    EXPECT_EQ(tile.nnz_begin, a.ptr()[tile.row_begin]);
    EXPECT_EQ(tile.nnz_end, a.ptr()[tile.row_end]);
    if (t > 0) {
      EXPECT_EQ(plan.tiles[t - 1].row_end, tile.row_begin);
    }
  }
}

TEST(TilePlan, BuffersFitTcdm) {
  Rng rng(1001);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 100, 2048, 30);
  McCsrmvConfig cfg;
  const auto plan = plan_tiles(a, cfg);
  const auto& tcdm = cfg.cluster.tcdm;
  const unsigned iw = sparse::index_bytes(cfg.width);
  for (const auto& buf : plan.buf) {
    EXPECT_GE(buf.ptr_addr, tcdm.base);
    const addr_t idcs_end =
        buf.idcs_addr + plan.tile_nnz_capacity * iw;
    EXPECT_LE(idcs_end, tcdm.base + tcdm.size_bytes());
  }
}

TEST(TilePlan, SplitRowsByCostBalancesSkewedRows) {
  Rng rng(1002);
  const auto a = sparse::powerlaw_matrix(rng, 256, 256, 12.0, 1.0);
  const unsigned workers = 8;
  const auto cut = cluster::split_rows_by_cost(a, 0, a.rows(), workers);
  // Contiguous cover of the range: monotone boundaries, first/last pinned.
  ASSERT_EQ(cut.size(), workers + 1);
  EXPECT_EQ(cut.front(), 0u);
  EXPECT_EQ(cut.back(), a.rows());
  for (unsigned w = 0; w < workers; ++w) EXPECT_LE(cut[w], cut[w + 1]);
  // Cost balance: no worker's share exceeds the ideal mean by more than
  // one row's cost (a boundary only moves in whole rows). An equal-rows
  // split of this power-law matrix would hand the hub-row worker several
  // times the mean.
  const auto cost = [&](std::uint32_t r0, std::uint32_t r1) {
    return (a.ptr()[r1] - a.ptr()[r0]) +
           cluster::kRowCostOverhead * (r1 - r0);
  };
  const std::uint64_t total = cost(0, a.rows());
  std::uint64_t max_row = 0;
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    max_row = std::max(max_row, cost(r, r + 1));
  }
  for (unsigned w = 0; w < workers; ++w) {
    EXPECT_LE(cost(cut[w], cut[w + 1]), total / workers + max_row) << w;
  }
  // Pure function: same inputs, same boundaries.
  EXPECT_EQ(cluster::split_rows_by_cost(a, 0, a.rows(), workers), cut);
}

TEST(TilePlan, ColumnBlockSetsPhasesAndWidensBlocks) {
  // CsrMV is the one-phase, one-column plan; a CsrMM plan of 10 columns in
  // blocks of 4 runs phases of 4, 4 and 2 columns, and its dense block and
  // y buffers widen by the block factor.
  Rng rng(1003);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 200, 96, 10);
  McCsrmvConfig cfg;
  cfg.max_tile_rows = 64;
  const auto mv = plan_tiles(a, cfg);
  EXPECT_EQ(mv.num_phases(), 1u);
  EXPECT_EQ(mv.phase_cols(0), 1u);
  const auto mm = plan_tiles_range(a, cfg, 0, a.rows(), 0, 0, 10, 4);
  EXPECT_EQ(mm.num_phases(), 3u);
  EXPECT_EQ(mm.phase_cols(0), 4u);
  EXPECT_EQ(mm.phase_cols(1), 4u);
  EXPECT_EQ(mm.phase_cols(2), 2u);
  EXPECT_GE(mm.flags_addr - mm.x_addr, 8ull * a.cols() * 4);
  EXPECT_GE(mm.buf[0].vals_addr - mm.buf[0].y_addr,
            8ull * cfg.max_tile_rows * 4);
  EXPECT_LT(mm.tile_nnz_capacity, mv.tile_nnz_capacity);
  // Both row-share rules cover each tile contiguously.
  for (const auto rule : {RowShare::kCostBalanced, RowShare::kUniform}) {
    for (const auto& tile : mm.tiles) {
      std::uint32_t next = tile.row_begin;
      for (unsigned w = 0; w < 8; ++w) {
        const auto [r0, r1] = worker_rows(a, tile, rule, 8, w);
        EXPECT_EQ(r0, next);
        EXPECT_LE(r0, r1);
        next = r1;
      }
      EXPECT_EQ(next, tile.row_end);
    }
  }
}

struct McCase {
  Variant variant;
  IndexWidth width;
};

class ClusterCsrmv : public ::testing::TestWithParam<McCase> {};

TEST_P(ClusterCsrmv, MatchesReferenceSingleTile) {
  const auto [v, w] = GetParam();
  Rng rng(1100);
  const auto a = sparse::random_uniform_matrix(rng, 64, 128, 700);
  const auto x = sparse::random_dense_vector(rng, 128);
  McCsrmvConfig cfg;
  cfg.variant = v;
  cfg.width = w;
  const auto r = run_csrmv_multicore(a, x, cfg);
  EXPECT_EQ(r.plan.tiles.size(), 1u);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
}

TEST_P(ClusterCsrmv, MatchesReferenceForcedMultiTile) {
  const auto [v, w] = GetParam();
  Rng rng(1101);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 300, 96, 9);
  const auto x = sparse::random_dense_vector(rng, 96);
  McCsrmvConfig cfg;
  cfg.variant = v;
  cfg.width = w;
  cfg.max_tile_rows = 48;  // forces ~7 tiles
  const auto r = run_csrmv_multicore(a, x, cfg);
  EXPECT_GE(r.plan.tiles.size(), 6u);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
}

TEST_P(ClusterCsrmv, HandlesEmptyRowsAndFewRows) {
  const auto [v, w] = GetParam();
  Rng rng(1102);
  // Fewer rows than workers plus empty rows.
  sparse::CooMatrix coo(5, 40);
  coo.add(1, 3, 1.5);
  coo.add(1, 17, -2.0);
  coo.add(4, 0, 3.0);
  const auto a = sparse::CsrMatrix::from_coo(coo);
  const auto x = sparse::random_dense_vector(rng, 40);
  McCsrmvConfig cfg;
  cfg.variant = v;
  cfg.width = w;
  const auto r = run_csrmv_multicore(a, x, cfg);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ClusterCsrmv,
    ::testing::Values(McCase{Variant::kBase, IndexWidth::kU16},
                      McCase{Variant::kSsr, IndexWidth::kU32},
                      McCase{Variant::kIssr, IndexWidth::kU16},
                      McCase{Variant::kIssr, IndexWidth::kU32}),
    [](const auto& info) {
      std::string name = kernels::to_string(info.param.variant);
      name += info.param.width == IndexWidth::kU16 ? "_u16" : "_u32";
      return name;
    });

TEST(ClusterCsrmvPerf, IssrBeatsBaseAtModerateDensity) {
  Rng rng(1200);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 256, 256, 32);
  const auto x = sparse::random_dense_vector(rng, 256);
  McCsrmvConfig base_cfg;
  base_cfg.variant = Variant::kBase;
  McCsrmvConfig issr_cfg;
  issr_cfg.variant = Variant::kIssr;
  const auto base = run_csrmv_multicore(a, x, base_cfg);
  const auto issr = run_csrmv_multicore(a, x, issr_cfg);
  const double speedup = static_cast<double>(base.cluster.cycles) /
                         static_cast<double>(issr.cluster.cycles);
  EXPECT_GT(speedup, 2.5);  // paper: >5x at nnz/row>50; 32/row lands lower
  EXPECT_LT(speedup, 7.2);
}

TEST(ClusterCsrmvPerf, BankConflictsReducePeakUtilization) {
  // The cluster's in-compute utilization must fall below the single-CC
  // ceiling of 0.8 but stay well above half of it (paper: 0.8 -> ~0.71).
  Rng rng(1201);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 256, 96);
  const auto x = sparse::random_dense_vector(rng, 256);
  McCsrmvConfig cfg;
  cfg.variant = Variant::kIssr;
  const auto r = run_csrmv_multicore(a, x, cfg);
  EXPECT_GT(r.cluster.tcdm.conflicts, 0u);
  EXPECT_LT(r.cluster.fpu_util(), 0.8);
  EXPECT_GT(r.cluster.fpu_util(), 0.3);
}

TEST(ClusterCsrmvPerf, ScalesWithWorkerCount) {
  Rng rng(1203);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 128, 256, 48);
  const auto x = sparse::random_dense_vector(rng, 256);
  cycle_t prev = 0;
  for (const unsigned workers : {1u, 2u, 8u}) {
    McCsrmvConfig cfg;
    cfg.variant = Variant::kIssr;
    cfg.cluster.num_workers = workers;
    const auto r = run_csrmv_multicore(a, x, cfg);
    EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9))
        << workers << " workers";
    if (prev != 0) {
      EXPECT_LT(r.cluster.cycles, prev);
    }
    prev = r.cluster.cycles;
  }
}

TEST(ClusterCsrmvPerf, DmaOverlapsComputeAcrossTiles) {
  // With many tiles, the double-buffered schedule must beat a serialized
  // (load + compute) bound.
  Rng rng(1202);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 128, 24);
  const auto x = sparse::random_dense_vector(rng, 128);
  McCsrmvConfig cfg;
  cfg.variant = Variant::kIssr;
  cfg.max_tile_rows = 64;  // 8 tiles
  const auto r = run_csrmv_multicore(a, x, cfg);
  EXPECT_GE(r.plan.tiles.size(), 8u);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
  // DMA busy time must overlap compute: total cycles are well below the
  // sum of pure-DMA and pure-compute time.
  EXPECT_LT(r.cluster.cycles,
            r.cluster.dma.busy_cycles +
                static_cast<cycle_t>(static_cast<double>(a.nnz()) / 8 * 1.25) +
                4000);
}

}  // namespace
}  // namespace issr::cluster
