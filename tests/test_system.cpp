// Multi-cluster system tests: the inter-cluster barrier's release
// ordering and latency, the cost-balanced row partition, golden-reference
// equality of the cross-cluster CsrMV/CsrMM kernels for every generator
// family at 1/2/4/8 clusters, shared-memory bandwidth contention, worker images shared across clusters (one
// translation per distinct program object), golden pins of both kernels'
// cycles, stalls, tile owners and result bytes, the scale-out mix's cycles
// at 1/2/4/8 clusters, and the driver integration (clusters axis: result
// files bytewise identical across --jobs, dry-run cost column matching the
// scheduler's estimate).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/runs.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "isa/assembler.hpp"
#include "kernels/kargs.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"
#include "system/barrier.hpp"
#include "system/csrmm_sys.hpp"
#include "system/csrmv_sys.hpp"
#include "system/steal.hpp"

namespace issr::system {
namespace {

using kernels::Variant;
using sparse::IndexWidth;

// --- Inter-cluster barrier -------------------------------------------------

TEST(SysBarrier, ReleasesOnlyAfterAllArriveAndLatencyElapses) {
  SysBarrier b(3, 10);  // one tree level (fan-in 4): release = last + 20
  b.arrive(0, 100);
  b.arrive(1, 104);
  EXPECT_FALSE(b.released(0, 105));  // cluster 2 still missing
  EXPECT_FALSE(b.released(1, 1000));
  b.arrive(2, 108);  // completes the generation; release at 128
  EXPECT_EQ(b.generation(), 1u);
  EXPECT_FALSE(b.released(0, 127));
  EXPECT_TRUE(b.released(0, 128));
  EXPECT_TRUE(b.released(1, 128));
  EXPECT_TRUE(b.released(2, 200));
}

TEST(SysBarrier, ZeroLatencyReleasesAtLastArrival) {
  SysBarrier b(2, 0);
  b.arrive(0, 5);
  b.arrive(1, 9);
  EXPECT_TRUE(b.released(0, 9));
  EXPECT_TRUE(b.released(1, 9));
}

TEST(SysBarrier, ReusableAcrossGenerations) {
  SysBarrier b(2, 4);  // one level: release = last arrival + 8
  cycle_t t = 0;
  for (int gen = 1; gen <= 5; ++gen) {
    b.arrive(0, t);
    b.arrive(1, t + 1);
    EXPECT_FALSE(b.released(0, t + 8));
    EXPECT_TRUE(b.released(0, t + 9));
    EXPECT_TRUE(b.released(1, t + 9));
    EXPECT_EQ(b.generation(), static_cast<std::uint64_t>(gen));
    t += 20;
  }
}

TEST(SysBarrier, TreeLevelsFollowFanIn) {
  // levels = ceil(log_fan_in(n)); release latency = 2 * levels * hop.
  EXPECT_EQ(SysBarrier(1, 8).levels(), 0u);
  EXPECT_EQ(SysBarrier(2, 8).levels(), 1u);
  EXPECT_EQ(SysBarrier(4, 8).levels(), 1u);
  EXPECT_EQ(SysBarrier(5, 8).levels(), 2u);
  EXPECT_EQ(SysBarrier(8, 8).levels(), 2u);   // default fan-in 4
  EXPECT_EQ(SysBarrier(8, 8, 2).levels(), 3u);
  EXPECT_EQ(SysBarrier(8, 8, 8).levels(), 1u);
  EXPECT_EQ(SysBarrier(8, 8).release_latency(), 32u);
  EXPECT_EQ(SysBarrier(8, 8, 2).release_latency(), 48u);
  EXPECT_EQ(SysBarrier(16, 3, 2).release_latency(), 24u);
}

TEST(SysBarrier, ReleaseLatencyPropagatesPerLevel) {
  // Deeper trees at the same hop latency release strictly later; the
  // delta is exactly 2 * hop per extra level.
  SysBarrier wide(8, 8, 8);    // 1 level  -> release = last + 16
  SysBarrier deep(8, 8, 2);    // 3 levels -> release = last + 48
  for (unsigned c = 0; c < 8; ++c) {
    wide.arrive(c, 100 + c);
    deep.arrive(c, 100 + c);
  }
  EXPECT_FALSE(wide.released(0, 122));
  EXPECT_TRUE(wide.released(0, 123));
  EXPECT_FALSE(deep.released(0, 154));
  EXPECT_TRUE(deep.released(0, 155));
}

TEST(SysBarrier, ArbitraryFanInArriveReleaseOrdering) {
  // Any arrival order completes the generation; no cluster observes the
  // release before the last arrival's root round trip, regardless of how
  // early it arrived or how lopsided the tree is.
  for (const unsigned fan_in : {2u, 3u, 4u, 7u}) {
    SysBarrier b(7, 5, fan_in);
    const unsigned order[] = {3, 0, 6, 1, 5, 2, 4};
    cycle_t t = 10;
    cycle_t last = 0;
    for (const unsigned c : order) {
      b.arrive(c, t);
      last = t;
      t += 7;
    }
    const cycle_t release = last + b.release_latency();
    for (unsigned c = 0; c < 7; ++c) {
      EXPECT_FALSE(b.released(c, release - 1)) << "fan_in " << fan_in;
      EXPECT_TRUE(b.released(c, release)) << "fan_in " << fan_in;
    }
  }
}

TEST(SysBarrier, ReleaseHintExposesOnlyCompletedGenerations) {
  SysBarrier b(2, 4);
  EXPECT_EQ(b.release_hint(0), kCycleNever);  // not arrived
  b.arrive(0, 50);
  EXPECT_EQ(b.release_hint(0), kCycleNever);  // generation still open
  b.arrive(1, 60);
  EXPECT_EQ(b.release_hint(0), 68u);  // 60 + 2 * 1 * 4
  EXPECT_EQ(b.release_hint(1), 68u);
  EXPECT_TRUE(b.released(0, 68));
  EXPECT_EQ(b.release_hint(0), kCycleNever);  // arrival consumed
}

TEST(SysBarrier, ArriveIsIdempotentWhileWaiting) {
  SysBarrier b(2, 0);
  b.arrive(0, 1);
  b.arrive(0, 2);  // re-arrival of the same waiter must not release
  EXPECT_EQ(b.generation(), 0u);
  b.arrive(1, 3);
  EXPECT_EQ(b.generation(), 1u);
}

// --- Cost-balanced row partition -------------------------------------------

TEST(Partition, CoversAllRowsMonotonically) {
  Rng rng(2000);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 500, 256, 20);
  for (const unsigned n : {1u, 2u, 4u, 8u, 13u}) {
    const auto cut = partition_rows_balanced(a, n);
    ASSERT_EQ(cut.size(), n + 1);
    EXPECT_EQ(cut.front(), 0u);
    EXPECT_EQ(cut.back(), a.rows());
    for (unsigned c = 0; c < n; ++c) EXPECT_LE(cut[c], cut[c + 1]);
  }
}

TEST(Partition, BalancesNnzAcrossShards) {
  // Skewed row lengths: the nnz-aware partition must still produce
  // shards within ~2x of the mean cost (a row-count split would not).
  Rng rng(2001);
  const auto a = sparse::powerlaw_matrix(rng, 512, 512, 24.0, 1.2);
  const unsigned n = 4;
  const auto cut = partition_rows_balanced(a, n);
  const double mean = static_cast<double>(a.nnz()) / n;
  for (unsigned c = 0; c < n; ++c) {
    const std::uint64_t shard_nnz = a.ptr()[cut[c + 1]] - a.ptr()[cut[c]];
    EXPECT_LT(static_cast<double>(shard_nnz), 2.0 * mean + 64.0) << "shard " << c;
  }
}

TEST(Partition, MoreClustersThanRowsLeavesTrailingShardsEmpty) {
  Rng rng(2002);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 3, 64, 8);
  const auto cut = partition_rows_balanced(a, 8);
  EXPECT_EQ(cut.front(), 0u);
  EXPECT_EQ(cut.back(), 3u);
}

// --- Work-stealing claim queue ---------------------------------------------

TEST(Steal, WorkQueueServesInSendOrderWithRoundTripLatency) {
  mem::InterconnectConfig nc;
  nc.num_clusters = 2;
  nc.link_latency = 4;
  mem::Interconnect noc(nc);
  SysWorkQueue q(3, 2, nc.link_latency);
  noc.begin_cycle(0);
  ASSERT_TRUE(q.try_request(0, 0, noc));
  ASSERT_TRUE(q.try_request(1, 0, noc));  // its own link: no collision
  EXPECT_TRUE(q.outstanding(0));
  EXPECT_TRUE(q.outstanding(1));
  // Round trip = request hop (4) + serve slot + reply hop (4). Both
  // requests arrive at cycle 4; the atomic unit serves one claim per
  // cycle in arrival (= send) order, so cluster 0's grant is deliverable
  // at cycle 8 and cluster 1's a cycle later.
  std::uint32_t item = 99;
  for (cycle_t t = 1; t < 8; ++t) {
    noc.begin_cycle(t);
    EXPECT_FALSE(q.poll(0, t, noc, item)) << t;
    EXPECT_FALSE(q.poll(1, t, noc, item)) << t;
  }
  noc.begin_cycle(8);
  ASSERT_TRUE(q.poll(0, 8, noc, item));
  EXPECT_EQ(item, 0u);
  EXPECT_FALSE(q.poll(1, 8, noc, item));
  EXPECT_FALSE(q.outstanding(0));
  noc.begin_cycle(9);
  ASSERT_TRUE(q.poll(1, 9, noc, item));
  EXPECT_EQ(item, 1u);
  EXPECT_EQ(q.owners().at(0), 0u);
  EXPECT_EQ(q.owners().at(1), 1u);
}

TEST(Steal, WorkQueueClaimPaysLinkBandwidthAndExhaustsToNumItems) {
  mem::InterconnectConfig nc;
  nc.num_clusters = 1;
  nc.link_latency = 1;
  mem::Interconnect noc(nc);
  SysWorkQueue q(1, 1, nc.link_latency);
  // A data beat already holds the egress link this cycle: the claim is
  // denied and retried, costing real bandwidth like any other message.
  noc.begin_cycle(0);
  ASSERT_TRUE(noc.try_beat(0, mem::Interconnect::Dir::kEgress, 0, 0));
  EXPECT_FALSE(q.try_request(0, 0, noc));
  EXPECT_FALSE(q.outstanding(0));
  noc.begin_cycle(1);
  ASSERT_TRUE(q.try_request(0, 1, noc));
  std::uint32_t item = 99;
  for (cycle_t t = 2;; ++t) {
    noc.begin_cycle(t);
    if (q.poll(0, t, noc, item)) break;
    ASSERT_LT(t, 100u);
  }
  EXPECT_EQ(item, 0u);
  // The queue is now empty: a further claim round-trips the same way
  // and grants the out-of-work sentinel num_items().
  noc.begin_cycle(10);
  ASSERT_TRUE(q.try_request(0, 10, noc));
  for (cycle_t t = 11;; ++t) {
    noc.begin_cycle(t);
    if (q.poll(0, t, noc, item)) break;
    ASSERT_LT(t, 100u);
  }
  EXPECT_EQ(item, q.num_items());
  ASSERT_EQ(q.owners().size(), 1u);
  EXPECT_EQ(q.owners()[0], 0u);
}

TEST(Steal, OrderTilesIsLongestProcessingTimeFirstAndStable) {
  using Tile = cluster::McTilePlan::Tile;
  // Costs (nnz + 8/row): a=18, b=38, c=18, d=108 — LPT order is d, b,
  // then a before c (stable: equal-cost tiles keep row order).
  std::vector<Tile> tiles = {Tile{0, 1, 0, 10}, Tile{1, 2, 10, 40},
                             Tile{2, 3, 40, 50}, Tile{3, 8, 50, 118}};
  steal_order_tiles(tiles);
  ASSERT_EQ(tiles.size(), 4u);
  EXPECT_EQ(tiles[0].row_begin, 3u);
  EXPECT_EQ(tiles[1].row_begin, 1u);
  EXPECT_EQ(tiles[2].row_begin, 0u);
  EXPECT_EQ(tiles[3].row_begin, 2u);
}

// --- Cross-cluster CsrMV ---------------------------------------------------

struct SysCase {
  sparse::MatrixFamily family;
  unsigned clusters;
};

class SystemCsrmv : public ::testing::TestWithParam<SysCase> {};

TEST_P(SystemCsrmv, MatchesReferenceAllFamiliesAllClusterCounts) {
  const auto [family, clusters] = GetParam();
  Rng rng(2100);
  const auto a = sparse::generate_matrix(rng, family, 256, 192, 14);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.variant = Variant::kIssr;
  cfg.width = IndexWidth::kU16;
  cfg.system.num_clusters = clusters;
  const auto r = run_csrmv_system(a, x, cfg);
  ASSERT_FALSE(r.system.aborted);
  EXPECT_EQ(r.system.clusters.size(), clusters);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
  // Exactly one completion barrier generation.
  EXPECT_GT(r.system.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesByClusters, SystemCsrmv,
    ::testing::Values(SysCase{sparse::MatrixFamily::kUniform, 1},
                      SysCase{sparse::MatrixFamily::kUniform, 2},
                      SysCase{sparse::MatrixFamily::kUniform, 4},
                      SysCase{sparse::MatrixFamily::kUniform, 8},
                      SysCase{sparse::MatrixFamily::kBanded, 1},
                      SysCase{sparse::MatrixFamily::kBanded, 2},
                      SysCase{sparse::MatrixFamily::kBanded, 4},
                      SysCase{sparse::MatrixFamily::kBanded, 8},
                      SysCase{sparse::MatrixFamily::kPowerLaw, 1},
                      SysCase{sparse::MatrixFamily::kPowerLaw, 2},
                      SysCase{sparse::MatrixFamily::kPowerLaw, 4},
                      SysCase{sparse::MatrixFamily::kPowerLaw, 8},
                      SysCase{sparse::MatrixFamily::kTorus, 1},
                      SysCase{sparse::MatrixFamily::kTorus, 2},
                      SysCase{sparse::MatrixFamily::kTorus, 4},
                      SysCase{sparse::MatrixFamily::kTorus, 8}),
    [](const auto& info) {
      std::string name = sparse::to_string(info.param.family);
      name += "_x" + std::to_string(info.param.clusters);
      return name;
    });

TEST(SystemCsrmv, AllVariantsAndWidthsMatchReference) {
  Rng rng(2101);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 128, 160, 12);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  const auto want = sparse::ref_csrmv(a, x);
  for (const Variant v : {Variant::kBase, Variant::kSsr, Variant::kIssr}) {
    for (const IndexWidth w : {IndexWidth::kU16, IndexWidth::kU32}) {
      SysCsrmvConfig cfg;
      cfg.variant = v;
      cfg.width = w;
      cfg.system.num_clusters = 2;
      const auto r = run_csrmv_system(a, x, cfg);
      EXPECT_TRUE(sparse::allclose(r.y, want, 1e-9, 1e-9))
          << kernels::to_string(v);
    }
  }
}

TEST(SystemCsrmv, OneClusterMatchesNClusterResults) {
  // N-cluster vs 1-cluster equality: the simulated y vectors must agree
  // exactly (identical FP operation order within each row).
  Rng rng(2102);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 200, 128, 16);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 1;
  const auto r1 = run_csrmv_system(a, x, cfg);
  for (const unsigned n : {2u, 4u, 8u}) {
    cfg.system.num_clusters = n;
    const auto rn = run_csrmv_system(a, x, cfg);
    ASSERT_EQ(rn.y.size(), r1.y.size());
    for (std::size_t i = 0; i < r1.y.size(); ++i) {
      EXPECT_EQ(rn.y[i], r1.y[i]) << "row " << i << " at " << n << " clusters";
    }
  }
}

TEST(SystemCsrmv, FewerRowsThanClustersStillCorrect) {
  Rng rng(2103);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 3, 64, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 8;
  const auto r = run_csrmv_system(a, x, cfg);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
}

TEST(SystemCsrmv, CyclesScaleDownWithClusterCount) {
  Rng rng(2105);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 256, 48);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  cycle_t prev = 0;
  for (const unsigned n : {1u, 2u, 4u}) {
    SysCsrmvConfig cfg;
    cfg.system.num_clusters = n;
    const auto r = run_csrmv_system(a, x, cfg);
    EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
    if (prev != 0) {
      EXPECT_LT(r.system.cycles, prev) << n << " clusters";
    }
    prev = r.system.cycles;
  }
}

TEST(SystemCsrmv, SharedBandwidthThrottlesEightClusters) {
  // With a single bank group serving one beat per direction per cycle,
  // eight clusters' DMA engines contend hard at the crossbar; an
  // unthrottled interconnect must be strictly faster. (Both validate.)
  Rng rng(2106);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 192, 24);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 8;
  cfg.system.noc.bank_groups = 1;
  cfg.system.noc.group_beats_per_cycle = 1;
  const auto throttled = run_csrmv_system(a, x, cfg);
  cfg.system.noc.link_beats_per_cycle = 0;  // unlimited links...
  cfg.system.noc.bank_groups = 0;           // ...and no crossbar stage
  const auto open = run_csrmv_system(a, x, cfg);
  EXPECT_TRUE(sparse::allclose(throttled.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
  EXPECT_TRUE(sparse::allclose(open.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
  EXPECT_GT(throttled.system.cycles, open.system.cycles);
}

TEST(SystemCsrmv, ContentionFillsNocStallBucketAndOwnershipIsComplete) {
  Rng rng(2109);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 192, 24);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 8;
  cfg.system.noc.bank_groups = 1;  // one group: everyone serializes
  cfg.system.noc.group_beats_per_cycle = 1;
  const auto r = run_csrmv_system(a, x, cfg);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
  // Worker cycles spent while the cluster's DMA loses NoC arbitration
  // land in the exclusive noc_contention bucket.
  EXPECT_GT(r.system.total_stalls()[trace::Bucket::kNocContention], 0u);
  // The steal run records a complete tile -> cluster ownership map over
  // the shared global plan.
  ASSERT_TRUE(r.steal);
  ASSERT_FALSE(r.plans.empty());
  ASSERT_EQ(r.tile_owner.size(), r.plans[0].tiles.size());
  for (const unsigned owner : r.tile_owner) EXPECT_LT(owner, 8u);
}

TEST(SystemCsrmv, StallBucketsDecomposeSystemCoreCycles) {
  Rng rng(2107);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 128, 128, 12);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 2;
  const auto r = run_csrmv_system(a, x, cfg);
  EXPECT_EQ(r.system.total_stalls().total(), r.system.core_cycles());
  const unsigned workers = cfg.system.cluster.num_workers;
  EXPECT_EQ(r.system.core_cycles(),
            r.system.cycles * 2ull * workers);
}

TEST(SystemCsrmv, BarrierLatencyExtendsTheRun) {
  Rng rng(2108);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 96, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig fast;
  fast.system.num_clusters = 2;
  fast.system.barrier_hop_latency = 0;
  SysCsrmvConfig slow = fast;
  slow.system.barrier_hop_latency = 250;
  const auto rf = run_csrmv_system(a, x, fast);
  const auto rs = run_csrmv_system(a, x, slow);
  // Two clusters form one tree level, so release = 2 * hop after the
  // last arrival. The DMCC arrives as soon as it has dispatched the halt
  // epilogue, so the workers' mailbox-drain tail (a few dozen cycles)
  // overlaps the release latency instead of extending the slow run.
  EXPECT_GE(rs.system.cycles, rf.system.cycles + 450);
}

// --- Cross-cluster CsrMM ---------------------------------------------------

class SystemCsrmm : public ::testing::TestWithParam<SysCase> {};

TEST_P(SystemCsrmm, MatchesReferenceAllFamiliesAllClusterCounts) {
  const auto [family, clusters] = GetParam();
  Rng rng(2200);
  const auto a = sparse::generate_matrix(rng, family, 96, 128, 10);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 10);
  SysCsrmmConfig cfg;
  cfg.system.num_clusters = clusters;
  cfg.col_block = 4;  // 10 columns -> 3 phases, last one partial
  const auto r = run_csrmm_system(a, b, cfg);
  ASSERT_FALSE(r.system.aborted);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmm(a, b), 1e-9, 1e-9));
  EXPECT_EQ(r.plans.front().num_phases(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesByClusters, SystemCsrmm,
    ::testing::Values(SysCase{sparse::MatrixFamily::kUniform, 1},
                      SysCase{sparse::MatrixFamily::kUniform, 2},
                      SysCase{sparse::MatrixFamily::kUniform, 4},
                      SysCase{sparse::MatrixFamily::kUniform, 8},
                      SysCase{sparse::MatrixFamily::kBanded, 2},
                      SysCase{sparse::MatrixFamily::kPowerLaw, 4},
                      SysCase{sparse::MatrixFamily::kTorus, 2}),
    [](const auto& info) {
      std::string name = sparse::to_string(info.param.family);
      name += "_x" + std::to_string(info.param.clusters);
      return name;
    });

TEST(SystemCsrmm, AllVariantsMatchReference) {
  Rng rng(2201);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 64, 96, 9);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 6);
  const auto want = sparse::ref_csrmm(a, b);
  for (const Variant v : {Variant::kBase, Variant::kSsr, Variant::kIssr}) {
    for (const IndexWidth w : {IndexWidth::kU16, IndexWidth::kU32}) {
      SysCsrmmConfig cfg;
      cfg.variant = v;
      cfg.width = w;
      cfg.system.num_clusters = 2;
      const auto r = run_csrmm_system(a, b, cfg);
      EXPECT_TRUE(sparse::allclose(r.y, want, 1e-9, 1e-9))
          << kernels::to_string(v);
    }
  }
}

TEST(SystemCsrmm, PhaseBarrierGenerationsMatchPlan) {
  // One inter-cluster barrier generation per column phase: the release
  // count is the direct observable of the phase synchronization.
  Rng rng(2202);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 80, 64, 8);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 16);
  SysCsrmmConfig cfg;
  cfg.system.num_clusters = 4;
  cfg.col_block = 4;  // 4 phases
  const auto r = run_csrmm_system(a, b, cfg);
  EXPECT_EQ(r.plans.front().num_phases(), 4u);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmm(a, b), 1e-9, 1e-9));
}

TEST(SystemCsrmm, NonPow2LeadingDimensionAndSingleColumn) {
  Rng rng(2203);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 40, 48, 6);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 3, /*ld=*/5);
  SysCsrmmConfig cfg;
  cfg.system.num_clusters = 2;  // auto col_block = 2 -> 2 phases
  const auto r = run_csrmm_system(a, b, cfg);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmm(a, b), 1e-9, 1e-9));

  const auto b1 = sparse::random_dense_matrix(rng, a.cols(), 1);
  const auto r1 = run_csrmm_system(a, b1, cfg);
  EXPECT_TRUE(sparse::allclose(r1.y, sparse::ref_csrmm(a, b1), 1e-9, 1e-9));
}

TEST(SystemCsrmm, ZeroRowsFinishWithoutFault) {
  // Every shard is empty: the clusters only pass the phase barriers. With
  // a zero-latency barrier the last arrival decides its own release; an
  // empty shard must not poll it in its arrival tick, or an earlier
  // cluster parks on an undecided release and the run stalls.
  const auto a = sparse::CsrMatrix::from_coo(sparse::CooMatrix(0, 32));
  Rng rng(2205);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 4);
  for (const std::uint32_t cb : {1u, 4u}) {
    for (const unsigned n : {1u, 2u, 3u}) {
      SysCsrmmConfig cfg;
      cfg.variant = Variant::kBase;
      cfg.system.num_clusters = n;
      cfg.system.barrier_hop_latency = 0;
      cfg.steal = false;
      cfg.col_block = cb;
      const auto r = run_csrmm_system(a, b, cfg);
      EXPECT_FALSE(r.system.fault) << n << " clusters, col_block " << cb;
    }
  }
}

// --- Wide clusters -----------------------------------------------------------

// The stealing controllers track the halt epilogue per worker, so a
// cluster may have as many workers as --cores accepts: 32 once ended in
// the cycle budget and 33 aborted.
TEST(SystemSteal, WideClustersFinishAndMatchReference) {
  Rng rng(2310);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 256, 160, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 3);
  for (const unsigned workers : {32u, 33u}) {
    SysCsrmvConfig mv;
    mv.system.num_clusters = 2;
    mv.system.cluster.num_workers = workers;
    mv.max_cycles = 200'000;
    const auto rv = run_csrmv_system(a, x, mv);
    ASSERT_TRUE(rv.steal);
    EXPECT_FALSE(rv.system.fault) << workers << " workers";
    EXPECT_TRUE(sparse::allclose(rv.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));

    SysCsrmmConfig mm;
    mm.system.num_clusters = 2;
    mm.system.cluster.num_workers = workers;
    const auto rm = run_csrmm_system(a, b, mm);
    ASSERT_TRUE(rm.steal);
    EXPECT_FALSE(rm.system.fault) << workers << " workers";
    EXPECT_TRUE(sparse::allclose(rm.y, sparse::ref_csrmm(a, b), 1e-9, 1e-9));
  }
}

// --- Shared worker images ----------------------------------------------------

// A System holds each distinct worker program object once and translates
// it once: every worker handed the same object runs the same Program and
// CompiledProgram, while content-equal but distinct objects stay separate.
TEST(SystemImages, WorkersHandedOneProgramObjectShareItsTranslation) {
  SystemConfig cfg;
  cfg.num_clusters = 3;
  cfg.cluster.num_workers = 2;
  const auto image = [](unsigned w) {
    isa::Assembler a;
    a.li(isa::kT0, static_cast<std::int64_t>(w));
    kernels::emit_halt(a);
    return std::make_shared<const isa::Program>(a.assemble());
  };
  const std::shared_ptr<const isa::Program> shared[] = {image(0), image(1)};
  const auto own = image(0);  // content-equal to shared[0], distinct object
  std::vector<std::vector<std::shared_ptr<const isa::Program>>> programs = {
      {shared[0], shared[1]}, {shared[0], shared[1]}, {own, shared[1]}};
  System sys(cfg, programs);
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned w = 0; w < 2; ++w) {
      EXPECT_EQ(&sys.cluster(c).program(w), programs[c][w].get());
      ASSERT_NE(sys.cluster(c).compiled(w), nullptr);
    }
    EXPECT_EQ(sys.cluster(c).compiled(1), sys.cluster(0).compiled(1));
  }
  EXPECT_EQ(sys.cluster(1).compiled(0), sys.cluster(0).compiled(0));
  EXPECT_NE(sys.cluster(2).compiled(0), sys.cluster(0).compiled(0));
  EXPECT_NE(sys.cluster(0).compiled(1), sys.cluster(0).compiled(0));
  const auto r = sys.run(100'000);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.compiled_programs, 3u);
}

// The stealing kernels give all eight clusters the same eight worker
// images: 8 translations, not 64. The static path builds one program per
// (cluster, worker) and keeps them. Every run still matches the golden
// reference.
TEST(SystemImages, StealingCsrmvTranslatesEachWorkerImageOnce) {
  Rng rng(2300);
  const auto a = sparse::generate_matrix(rng, sparse::MatrixFamily::kPowerLaw,
                                         256, 192, 14);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  const auto want = sparse::ref_csrmv(a, x);
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 8;
  const auto steal = run_csrmv_system(a, x, cfg);
  ASSERT_TRUE(steal.steal);
  EXPECT_EQ(steal.system.compiled_programs, 8u);
  EXPECT_TRUE(sparse::allclose(steal.y, want, 1e-9, 1e-9));

  cfg.steal = false;
  const auto fixed = run_csrmv_system(a, x, cfg);
  ASSERT_FALSE(fixed.steal);
  EXPECT_EQ(fixed.system.compiled_programs, 64u);
  EXPECT_TRUE(sparse::allclose(fixed.y, want, 1e-9, 1e-9));
}

TEST(SystemImages, StealingCsrmmTranslatesEachWorkerImageOnce) {
  Rng rng(2301);
  const auto a = sparse::generate_matrix(rng, sparse::MatrixFamily::kUniform,
                                         96, 128, 10);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 10);
  const auto want = sparse::ref_csrmm(a, b);
  SysCsrmmConfig cfg;
  cfg.system.num_clusters = 8;
  cfg.col_block = 4;
  const auto steal = run_csrmm_system(a, b, cfg);
  ASSERT_TRUE(steal.steal);
  EXPECT_EQ(steal.system.compiled_programs, 8u);
  EXPECT_TRUE(sparse::allclose(steal.y, want, 1e-9, 1e-9));

  cfg.steal = false;
  const auto fixed = run_csrmm_system(a, b, cfg);
  ASSERT_FALSE(fixed.steal);
  EXPECT_EQ(fixed.system.compiled_programs, 64u);
  EXPECT_TRUE(sparse::allclose(fixed.y, want, 1e-9, 1e-9));
}

// --- Golden pins -------------------------------------------------------------

// The System kernels' observable behaviour, pinned to fixed values: both
// kernels, static and stealing, at 1/2/8 clusters. Each run condenses to
// one line — system cycles, core-cycles, the nine stall buckets, the tile
// -> cluster ownership map (length and hash), the claim-queue counters
// (CsrMV only; CsrMM reports none) and an FNV-1a hash of y's bytes — so a
// mismatch prints the whole actual line next to the expected one.

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string pin_line(const SystemResult& s, const std::vector<unsigned>& owner,
                     const SysQueueStats* queue, const double* y,
                     std::size_t n) {
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  char buf[512];
  int len = std::snprintf(buf, sizeof buf, "cyc=%llu core=%llu st=",
                          u(s.cycles), u(s.core_cycles()));
  const auto stalls = s.total_stalls();
  for (unsigned b = 0; b < trace::kNumBuckets; ++b) {
    len += std::snprintf(buf + len, sizeof buf - len, "%s%llu", b ? "/" : "",
                         u(stalls.counts[b]));
  }
  len += std::snprintf(buf + len, sizeof buf - len, " own=%zu:%016llx",
                       owner.size(),
                       u(fnv1a(owner.data(), owner.size() * sizeof(unsigned))));
  if (queue) {
    len += std::snprintf(buf + len, sizeof buf - len,
                         " q=%llu/%llu/%llu/%llu/%llu", u(queue->claims),
                         u(queue->claim_wait_cycles), u(queue->claim_wait_max),
                         u(queue->send_denied), u(queue->deliver_denied));
  }
  std::snprintf(buf + len, sizeof buf - len, " y=%016llx%s",
                u(fnv1a(y, n * sizeof(double))), s.fault ? " FAULT" : "");
  return buf;
}

struct GoldenCase {
  const char* name;
  char mat;  ///< 'u' uniform, 'p' power-law, 'f' fewer rows than clusters
  Variant variant;
  unsigned clusters;
  bool steal;
  std::uint32_t b_cols;  ///< 0 = CsrMV
  std::uint32_t ldb;     ///< CsrMM leading dimension (0 = b_cols)
  const char* want;
};

sparse::CsrMatrix golden_matrix(char mat, bool csrmm) {
  Rng rng(csrmm ? 2410 : 2400);
  const std::uint32_t rows = csrmm ? 64 : 128;
  const std::uint32_t cols = csrmm ? 96 : 160;
  switch (mat) {
    case 'p':
      return sparse::generate_matrix(rng, sparse::MatrixFamily::kPowerLaw,
                                     rows, cols, 10);
    case 'f':
      return sparse::random_fixed_row_nnz_matrix(rng, 3, cols, 8);
    default:
      return sparse::generate_matrix(rng, sparse::MatrixFamily::kUniform,
                                     rows, cols, 10);
  }
}

std::string golden_run(const GoldenCase& g) {
  const auto a = golden_matrix(g.mat, g.b_cols != 0);
  Rng rng(2420);
  if (g.b_cols == 0) {
    const auto x = sparse::random_dense_vector(rng, a.cols());
    SysCsrmvConfig cfg;
    cfg.variant = g.variant;
    cfg.system.num_clusters = g.clusters;
    cfg.steal = g.steal;
    const auto r = run_csrmv_system(a, x, cfg);
    EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
    return pin_line(r.system, r.tile_owner, &r.queue, r.y.data(), r.y.size());
  }
  const auto b = sparse::random_dense_matrix(
      rng, a.cols(), g.b_cols, g.ldb ? g.ldb : g.b_cols);
  SysCsrmmConfig cfg;
  cfg.variant = g.variant;
  cfg.system.num_clusters = g.clusters;
  cfg.steal = g.steal;
  cfg.col_block = 4;
  const auto r = run_csrmm_system(a, b, cfg);
  EXPECT_TRUE(sparse::allclose(r.y, sparse::ref_csrmm(a, b), 1e-9, 1e-9));
  return pin_line(r.system, r.tile_owner, nullptr, r.y.data(),
                  r.y.storage_elems());
}

constexpr Variant kI = Variant::kIssr;
constexpr Variant kB = Variant::kBase;

const GoldenCase kGolden[] = {
    // CsrMV: uniform and power-law, static and stealing, 1/2/8 clusters.
    {"mv_u_x1", 'u', kI, 1, true, 0, 0,
     "cyc=753 core=6024 st=1664/3664/0/0/0/454/0/242/0 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=add00ae473403c4c"},
    {"mv_u_x2_static", 'u', kI, 2, false, 0, 0,
     "cyc=439 core=7024 st=1664/4277/0/2/0/449/0/632/0 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=add00ae473403c4c"},
    {"mv_u_x2_steal", 'u', kI, 2, true, 0, 0,
     "cyc=563 core=9008 st=1664/6711/0/0/0/14/0/619/0 "
     "own=8:ac656652d59d14f5 q=10/268/29/0/187 y=add00ae473403c4c"},
    {"mv_u_x8_static", 'u', kI, 8, false, 0, 0,
     "cyc=221 core=14144 st=1664/8448/0/57/0/541/0/3434/0 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=add00ae473403c4c"},
    {"mv_u_x8_steal", 'u', kI, 8, true, 0, 0,
     "cyc=450 core=28800 st=1664/25024/0/0/0/44/0/2068/0 "
     "own=32:d59736111143fec5 q=40/536/27/0/139 y=add00ae473403c4c"},
    {"mv_p_x1", 'p', kI, 1, true, 0, 0,
     "cyc=739 core=5912 st=998/2903/0/0/0/357/112/1536/6 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=fcd6b8d8b087f38e"},
    {"mv_p_x2_static", 'p', kI, 2, false, 0, 0,
     "cyc=441 core=7056 st=998/3497/0/0/0/338/109/2109/5 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=fcd6b8d8b087f38e"},
    {"mv_p_x2_steal", 'p', kI, 2, true, 0, 0,
     "cyc=860 core=13760 st=998/12195/0/0/0/10/93/464/0 "
     "own=10:3ce608d29e4cad04 q=12/217/31/0/120 y=fcd6b8d8b087f38e"},
    {"mv_p_x8_static", 'p', kI, 8, false, 0, 0,
     "cyc=402 core=25728 st=998/6960/0/22/0/409/92/17247/0 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=fcd6b8d8b087f38e"},
    {"mv_p_x8_steal", 'p', kI, 8, true, 0, 0,
     "cyc=534 core=34176 st=998/25663/0/0/0/27/90/7398/0 "
     "own=33:7c723997f36d0a96 q=41/512/25/0/140 y=fcd6b8d8b087f38e"},
    {"mv_u_base_x1", 'u', kB, 1, true, 0, 0,
     "cyc=1930 core=15440 st=1280/13441/0/0/0/529/0/190/0 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=a20931d9fdb5afb1"},
    {"mv_u_base_x8_steal", 'u', kB, 8, true, 0, 0,
     "cyc=631 core=40384 st=1280/37824/0/0/0/8/0/1272/0 "
     "own=32:575f8b432dbb3325 q=40/550/27/0/146 y=a20931d9fdb5afb1"},
    {"mv_f_x8_static", 'f', kI, 8, false, 0, 0,
     "cyc=151 core=9664 st=33/1266/0/24/0/42/0/8299/0 "
     "own=0:cbf29ce484222325 q=0/0/0/0/0 y=5650b71bc73e1686"},
    {"mv_f_x8_steal", 'f', kI, 8, true, 0, 0,
     "cyc=166 core=10624 st=33/5160/0/0/0/0/0/5431/0 "
     "own=3:756241e1be8c9396 q=11/214/27/0/98 y=5650b71bc73e1686"},
    // CsrMM, col_block 4: one partial phase (b_cols 1), two full phases
    // (8), two full plus a partial one (10).
    {"mm_u_b1_x1", 'u', kI, 1, true, 1, 0,
     "cyc=558 core=4464 st=832/2684/0/0/0/303/0/645/0 "
     "own=0:cbf29ce484222325 y=13fd753f5d8fb537"},
    {"mm_u_b1_x2_static", 'u', kI, 2, false, 1, 0,
     "cyc=454 core=7264 st=832/5048/0/60/0/292/0/1032/0 "
     "own=0:cbf29ce484222325 y=13fd753f5d8fb537"},
    {"mm_u_b1_x2_steal", 'u', kI, 2, true, 1, 0,
     "cyc=614 core=9824 st=832/8312/0/0/0/53/0/627/0 "
     "own=8:42a4f02043f7f565 y=13fd753f5d8fb537"},
    {"mm_u_b1_x8_static", 'u', kI, 8, false, 1, 0,
     "cyc=403 core=25792 st=832/18760/0/125/0/635/0/5440/0 "
     "own=0:cbf29ce484222325 y=13fd753f5d8fb537"},
    {"mm_u_b1_x8_steal", 'u', kI, 8, true, 1, 0,
     "cyc=685 core=43840 st=832/39280/0/0/0/33/0/3695/0 "
     "own=32:9da9dc51a4e29675 y=13fd753f5d8fb537"},
    {"mm_u_b8_x1", 'u', kI, 1, true, 8, 0,
     "cyc=2681 core=21448 st=6656/13051/0/0/0/700/0/1041/0 "
     "own=0:cbf29ce484222325 y=0e91358f3aa3c763"},
    {"mm_u_b8_x2_static", 'u', kI, 2, false, 8, 0,
     "cyc=1676 core=26816 st=6656/17548/0/1/0/802/0/1809/0 "
     "own=0:cbf29ce484222325 y=0e91358f3aa3c763"},
    {"mm_u_b8_x2_steal", 'u', kI, 2, true, 8, 0,
     "cyc=2797 core=44752 st=6656/34086/0/0/0/230/0/3780/0 "
     "own=16:cd821a20c1f95cc5 y=0e91358f3aa3c763"},
    {"mm_u_b8_x8_static", 'u', kI, 8, false, 8, 0,
     "cyc=955 core=61120 st=6656/45632/0/59/0/1691/0/7082/0 "
     "own=0:cbf29ce484222325 y=0e91358f3aa3c763"},
    {"mm_u_b8_x8_steal", 'u', kI, 8, true, 8, 0,
     "cyc=2812 core=179968 st=6656/168296/0/0/0/74/0/4942/0 "
     "own=64:c6180067eb98c2f5 y=0e91358f3aa3c763"},
    {"mm_u_b10_x1", 'u', kI, 1, true, 10, 0,
     "cyc=3499 core=27992 st=8320/17443/0/0/0/1073/0/1156/0 "
     "own=0:cbf29ce484222325 y=b30f14ffebf6e6b5"},
    {"mm_u_b10_x2_static", 'u', kI, 2, false, 10, 0,
     "cyc=2210 core=35360 st=8320/23751/0/2/0/1185/0/2102/0 "
     "own=0:cbf29ce484222325 y=b30f14ffebf6e6b5"},
    {"mm_u_b10_x2_steal", 'u', kI, 2, true, 10, 0,
     "cyc=3615 core=57840 st=8320/44520/0/0/0/262/0/4738/0 "
     "own=24:9233956ce99e8575 y=b30f14ffebf6e6b5"},
    {"mm_u_b10_x8_static", 'u', kI, 8, false, 10, 0,
     "cyc=1362 core=87168 st=8320/68160/0/333/0/2176/0/8179/0 "
     "own=0:cbf29ce484222325 y=b30f14ffebf6e6b5"},
    {"mm_u_b10_x8_steal", 'u', kI, 8, true, 10, 0,
     "cyc=3718 core=237952 st=8320/223132/0/0/0/130/0/6370/0 "
     "own=96:74925340e619af75 y=b30f14ffebf6e6b5"},
    {"mm_p_b10_x8_static", 'p', kI, 8, false, 10, 0,
     "cyc=2486 core=159104 st=5420/129197/0/295/0/1862/403/21927/0 "
     "own=0:cbf29ce484222325 y=9268ed6cbdb9336c"},
    {"mm_p_b10_x8_steal", 'p', kI, 8, true, 10, 0,
     "cyc=3781 core=241984 st=5420/229732/0/0/0/75/371/6386/0 "
     "own=96:355d1541fad2ce40 y=9268ed6cbdb9336c"},
    {"mm_u_b3_ld5_x2_static", 'u', kI, 2, false, 3, 5,
     "cyc=685 core=10960 st=2496/6873/0/0/0/361/0/1230/0 "
     "own=0:cbf29ce484222325 y=f3e7e0b6a5c2ab67"},
    {"mm_u_b3_ld5_x2_steal", 'u', kI, 2, true, 3, 5,
     "cyc=1116 core=17856 st=2496/13790/0/0/0/106/0/1464/0 "
     "own=8:2d654b5220e38765 y=f3e7e0b6a5c2ab67"},
    {"mm_u_base_b10_x8_steal", 'u', kB, 8, true, 10, 0,
     "cyc=5579 core=357056 st=6400/348304/0/0/0/474/0/1878/0 "
     "own=96:b75806b1cf4108e5 y=dd860926f6ba05b0"},
    {"mm_f_b10_x8_static", 'f', kI, 8, false, 10, 0,
     "cyc=1153 core=73792 st=330/22877/0/5/0/559/0/50021/0 "
     "own=0:cbf29ce484222325 y=aa988a70b09905d0"},
    {"mm_f_b10_x8_steal", 'f', kI, 8, true, 10, 0,
     "cyc=1268 core=81152 st=330/68237/0/784/0/6/0/11795/0 "
     "own=9:e73b851a3efdcf82 y=aa988a70b09905d0"},
};

TEST(SystemGolden, KernelsMatchPinnedCyclesStallsOwnersAndBytes) {
  for (const auto& g : kGolden) {
    EXPECT_EQ(golden_run(g), g.want) << g.name;
  }
}

// The scale-out pins: a four-family CsrMV mix (uniform at 51 nnz/row,
// banded, torus Laplacian, power-law) on ISSR-u16 with 8 workers per
// cluster and the default tuning (stealing), at 1/2/4/8 clusters. Every
// operand comes from Rng(4), each x drawn right after its matrix. The
// full mix's per-count sums, 108641/57783/31020/17493 cycles, are the
// README's 1.0/1.88/3.50/6.21x time-to-solution claim; the half mix has
// the shapes perfbench's system_x8 workload times.
std::vector<std::pair<sparse::CsrMatrix, sparse::DenseVector>> scale_out_mix(
    std::uint32_t n, std::uint32_t torus_side) {
  Rng rng(4);
  std::vector<std::pair<sparse::CsrMatrix, sparse::DenseVector>> mix;
  const auto add = [&](sparse::CsrMatrix a) {
    auto x = sparse::random_dense_vector(rng, a.cols());
    mix.emplace_back(std::move(a), std::move(x));
  };
  add(sparse::random_fixed_row_nnz_matrix(rng, n, n, 51));
  add(sparse::banded_matrix(rng, n / 2, 24));
  add(sparse::torus2d_matrix(rng, torus_side, torus_side));
  add(sparse::powerlaw_matrix(rng, n / 2, n / 4, 24.0, 0.5));
  return mix;
}

TEST(SystemGolden, ScaleOutMixCycles) {
  struct Mix {
    const char* name;
    std::uint32_t n, torus_side;
    std::uint64_t want[4][4];  ///< system cycles [clusters 1/2/4/8][member]
  };
  const Mix mixes[] = {
      {"full", 4096, 64,
       {{53019, 25177, 16105, 14340},
        {28242, 13577, 8306, 7658},
        {14984, 7141, 4548, 4347},
        {7958, 4052, 2682, 2801}}},
      {"half", 2048, 48,
       {{27093, 13242, 9879, 7969},
        {15181, 7014, 4733, 4026},
        {7663, 3752, 2662, 2369},
        {4134, 2302, 1644, 1624}}},
  };
  const unsigned kClusters[] = {1, 2, 4, 8};
  for (const auto& m : mixes) {
    const auto mix = scale_out_mix(m.n, m.torus_side);
    for (std::size_t c = 0; c < 4; ++c) {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        const auto r = driver::run_csrmv_sys(
            Variant::kIssr, IndexWidth::kU16, kClusters[c], 8, mix[i].first,
            mix[i].second);
        EXPECT_TRUE(r.ok) << m.name << " x" << kClusters[c] << " #" << i;
        EXPECT_EQ(r.sys.system.cycles, m.want[c][i])
            << m.name << " x" << kClusters[c] << " #" << i;
      }
    }
  }
}

// --- Driver integration: the clusters axis ---------------------------------

TEST(DriverClusters, ExpansionCrossesClustersAndPinsSpvv) {
  driver::ScenarioMatrix m;
  m.kernels = {driver::Kernel::kSpvv, driver::Kernel::kCsrmv};
  m.variants = {Variant::kIssr};
  m.widths = {IndexWidth::kU16};
  m.cores = {8};
  m.clusters = {1, 4};
  const auto scenarios = m.expand();
  // SpVV: cores>1 skipped entirely. CsrMV: one scenario per cluster count.
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].clusters, 1u);
  EXPECT_EQ(scenarios[1].clusters, 4u);
  // The workload seed ignores the clusters axis (same operands for the
  // whole comparison group).
  EXPECT_EQ(scenarios[0].seed, scenarios[1].seed);
  // The name carries the axis only when it is not the default.
  EXPECT_EQ(scenarios[0].name().find("/x"), std::string::npos);
  EXPECT_NE(scenarios[1].name().find("/x4"), std::string::npos);
}

TEST(DriverClusters, RunScenarioValidatesMultiClusterAgainstReference) {
  driver::Scenario s;
  s.kernel = driver::Kernel::kCsrmv;
  s.variant = Variant::kIssr;
  s.width = IndexWidth::kU16;
  s.rows = 96;
  s.cols = 96;
  s.density = 0.1;
  s.cores = 4;
  s.clusters = 2;
  s.seed = driver::derive_seed(7, s.kernel, s.family, s.density, s.rows,
                               s.cols);
  const auto r = driver::run_scenario(s);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.scenario.clusters, 2u);
  // core_cycles spans every worker in every cluster, and the stall
  // buckets decompose it exactly.
  EXPECT_EQ(r.core_cycles, r.cycles * 8ull);
  EXPECT_EQ(r.stalls.total(), r.core_cycles);
}

TEST(DriverClusters, MultiClusterSweepBytewiseIdenticalAcrossJobs) {
  driver::ScenarioMatrix m;
  m.variants = {Variant::kBase, Variant::kIssr};
  m.widths = {IndexWidth::kU16};
  m.cores = {2};
  m.clusters = {1, 2, 4};
  m.rows = 64;
  m.cols = 64;
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 6u);
  driver::SweepSpec spec;
  spec.scenarios = scenarios;
  spec.jobs = 1;
  const auto serial = driver::run_sweep(spec).results;
  spec.jobs = 3;
  const auto parallel = driver::run_sweep(spec).results;
  for (const auto& r : serial) EXPECT_TRUE(r.ok) << r.scenario.name();
  EXPECT_EQ(driver::results_to_json(serial), driver::results_to_json(parallel));
  EXPECT_EQ(driver::results_to_csv(serial), driver::results_to_csv(parallel));
}

TEST(DriverClusters, EstimatedCostGrowsWithClusterCount) {
  driver::Scenario s;
  s.kernel = driver::Kernel::kCsrmv;
  s.rows = 192;
  s.cols = 256;
  s.cores = 8;
  s.clusters = 1;
  const double c1 = driver::estimated_cost(s);
  s.clusters = 4;
  const double c4 = driver::estimated_cost(s);
  s.clusters = 8;
  const double c8 = driver::estimated_cost(s);
  EXPECT_GT(c4, c1);
  EXPECT_GT(c8, c4);
}

TEST(DriverClusters, DryRunCostColumnMatchesSchedulerEstimate) {
  // Regression: the --dry-run listing must print, for every scenario —
  // multi-cluster ones included — exactly the cost the sweep scheduler
  // dispatches by, and its total must cover cluster-ness multiplicity
  // at any rep count (it once did not when reps > 1).
  driver::ScenarioMatrix m;
  m.variants = {Variant::kIssr};
  m.widths = {IndexWidth::kU16};
  m.cores = {8};
  m.clusters = {1, 4, 8};
  const auto scenarios = m.expand();
  ASSERT_EQ(scenarios.size(), 3u);
  const unsigned reps = 3;
  const std::string text = driver::list_scenarios_text(scenarios, reps);

  double total = 0.0;
  for (const auto& s : scenarios) {
    const double cost = driver::estimated_cost(s);
    total += cost;
    char want[256];
    std::snprintf(want, sizeof want,
                  "%s  rows=%u cols=%u target_nnz/row=%u "
                  "seed=0x%016llx cost=%.0f\n",
                  s.name().c_str(), s.rows, s.cols, s.row_nnz(),
                  static_cast<unsigned long long>(s.seed), cost);
    EXPECT_NE(text.find(want), std::string::npos)
        << s.name() << " must list the scheduler's cost:\n" << want;
  }
  char want[160];
  std::snprintf(want, sizeof want, "total estimated cost %.0f", total * reps);
  EXPECT_NE(text.find(want), std::string::npos)
      << "total must be sum(cost) x reps: " << want;
}

}  // namespace
}  // namespace issr::system
