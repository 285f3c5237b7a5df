// Host-parallel System engine (system/par_engine.hpp) tests: bitwise
// equality against the serial lockstep engine — cycles, per-cluster stall
// buckets, NoC counters, simulated y bits, steal tile ownership, trace
// bytes — for every kernel family at 1/2/4/8 clusters, steal on and off,
// at 1/2/8 host threads; fault parity (wedged barriers, frozen DMA) under
// threads; and unit tests of the thread-count resolution and the seam
// quantum computation (Cluster::next_seam with a controller probe).
#include <gtest/gtest.h>

#include <functional>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"
#include "system/csrmm_sys.hpp"
#include "system/csrmv_sys.hpp"
#include "system/par_engine.hpp"
#include "trace/chrome.hpp"
#include "trace/ring.hpp"

namespace issr::system {
namespace {

using kernels::Variant;
using sparse::IndexWidth;

// --- Host-thread resolution --------------------------------------------------

TEST(ParEngine, ResolveHostThreadsClampsAndAutoDetects) {
  EXPECT_EQ(resolve_host_threads(1, 8), 1u);
  EXPECT_EQ(resolve_host_threads(4, 8), 4u);
  EXPECT_EQ(resolve_host_threads(16, 8), 8u);  // clamped to clusters
  EXPECT_EQ(resolve_host_threads(3, 2), 2u);
  // 0 = auto: min(clusters, hardware_concurrency) — at least 1, never
  // more than the cluster count.
  const unsigned auto8 = resolve_host_threads(0, 8);
  EXPECT_GE(auto8, 1u);
  EXPECT_LE(auto8, 8u);
  EXPECT_EQ(resolve_host_threads(0, 1), 1u);
}

// --- Seam quantum computation ------------------------------------------------

// Cluster::next_seam composes three bounds: a transferring DMA pins the
// seam to `now`, a pending DMA completion bounds it by its maturity, and
// the controller seam probe bounds it by the controller's next shared
// touch — with kCycleHold given absolute priority over the completion
// bound (an arrived controller polls the barrier every tick, so it must
// never free-run ahead of an undecided release).
TEST(ParEngine, NextSeamComposesProbeAndDmaBounds) {
  cluster::ClusterConfig cfg;
  cfg.num_workers = 1;
  cluster::Cluster cl(cfg, {std::make_shared<const isa::Program>()});

  // No controller: the cluster is seam-free until an external event.
  EXPECT_EQ(cl.next_seam(10), kCycleNever);

  // An active controller without a probe pins the seam to `now` (always
  // correct: forces lockstep).
  cl.set_controller([](cluster::Cluster&, cycle_t) {});
  cl.set_controller_done(false);
  EXPECT_EQ(cl.next_seam(10), 10u);

  // A probe bounds the seam; results below `now` clamp up to `now`.
  cycle_t probe_result = 25;
  cl.set_controller_seam_probe([&](cycle_t) { return probe_result; });
  EXPECT_EQ(cl.next_seam(10), 25u);
  probe_result = 3;
  EXPECT_EQ(cl.next_seam(10), 10u);
  probe_result = kCycleNever;
  EXPECT_EQ(cl.next_seam(10), kCycleNever);

  // kCycleHold passes through when nothing local is pending: the engine
  // parks the lane until the barrier's epoch moves.
  probe_result = kCycleHold;
  EXPECT_EQ(cl.next_seam(10), kCycleHold);

  // A finished controller drops out of the seam computation entirely.
  cl.set_controller_done(true);
  EXPECT_EQ(cl.next_seam(10), kCycleNever);
}

// --- Bitwise equality helpers ------------------------------------------------

void expect_cluster_equal(const cluster::ClusterResult& a,
                          const cluster::ClusterResult& b, unsigned c) {
  EXPECT_EQ(a.cycles, b.cycles) << "cluster " << c;
  EXPECT_EQ(a.aborted, b.aborted) << "cluster " << c;
  EXPECT_EQ(a.fault.code, b.fault.code) << "cluster " << c;
  ASSERT_EQ(a.stalls.size(), b.stalls.size()) << "cluster " << c;
  for (std::size_t w = 0; w < a.stalls.size(); ++w) {
    EXPECT_EQ(a.stalls[w], b.stalls[w]) << "cluster " << c << " worker " << w;
  }
  EXPECT_EQ(a.total_macs(), b.total_macs()) << "cluster " << c;
  EXPECT_EQ(a.total_fmadd(), b.total_fmadd()) << "cluster " << c;
  EXPECT_EQ(a.dma.jobs, b.dma.jobs) << "cluster " << c;
  EXPECT_EQ(a.dma.bytes, b.dma.bytes) << "cluster " << c;
  EXPECT_EQ(a.dma.busy_cycles, b.dma.busy_cycles) << "cluster " << c;
  EXPECT_EQ(a.dma.noc_denied_cycles, b.dma.noc_denied_cycles)
      << "cluster " << c;
}

// Everything a result file or report could contain must match bitwise;
// only host-side diagnostics (ParStats, the per-cluster ff decomposition)
// may differ between the engines.
void expect_system_equal(const SystemResult& a, const SystemResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.fault.code, b.fault.code);
  EXPECT_EQ(a.fault.cycle, b.fault.cycle);
  EXPECT_EQ(a.main_mem_read, b.main_mem_read);
  EXPECT_EQ(a.main_mem_written, b.main_mem_written);
  EXPECT_EQ(a.noc_group_conflicts, b.noc_group_conflicts);
  ASSERT_EQ(a.noc_links.size(), b.noc_links.size());
  for (std::size_t c = 0; c < a.noc_links.size(); ++c) {
    EXPECT_EQ(a.noc_links[c].beats_in, b.noc_links[c].beats_in) << c;
    EXPECT_EQ(a.noc_links[c].beats_out, b.noc_links[c].beats_out) << c;
    EXPECT_EQ(a.noc_links[c].denied_in, b.noc_links[c].denied_in) << c;
    EXPECT_EQ(a.noc_links[c].denied_out, b.noc_links[c].denied_out) << c;
  }
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    expect_cluster_equal(a.clusters[c], b.clusters[c],
                         static_cast<unsigned>(c));
  }
}

void expect_csrmv_equal(const SysCsrmvResult& a, const SysCsrmvResult& b) {
  expect_system_equal(a.system, b.system);
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t i = 0; i < a.y.size(); ++i) {
    EXPECT_EQ(a.y[i], b.y[i]) << "row " << i;
  }
  EXPECT_EQ(a.tile_owner, b.tile_owner);
  EXPECT_EQ(a.queue.claims, b.queue.claims);
  EXPECT_EQ(a.queue.claim_wait_cycles, b.queue.claim_wait_cycles);
  EXPECT_EQ(a.queue.send_denied, b.queue.send_denied);
  EXPECT_EQ(a.queue.deliver_denied, b.queue.deliver_denied);
}

// --- CsrMV: serial vs parallel, all families ---------------------------------

struct ParCase {
  sparse::MatrixFamily family;
  unsigned clusters;
  bool steal;
};

class ParEngineCsrmv : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParEngineCsrmv, BitwiseEqualToSerialAtEveryThreadCount) {
  const auto [family, clusters, steal] = GetParam();
  Rng rng(7100);
  const auto a = sparse::generate_matrix(rng, family, 256, 192, 14);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.variant = Variant::kIssr;
  cfg.width = IndexWidth::kU16;
  cfg.system.num_clusters = clusters;
  cfg.steal = steal;
  cfg.system.host_threads = 1;
  const auto serial = run_csrmv_system(a, x, cfg);
  ASSERT_FALSE(serial.system.aborted);
  EXPECT_TRUE(sparse::allclose(serial.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9));
  for (const unsigned threads : {2u, 8u}) {
    cfg.system.host_threads = threads;
    const auto par = run_csrmv_system(a, x, cfg);
    expect_csrmv_equal(par, serial);
    if (threads <= clusters) {
      EXPECT_EQ(par.system.par.host_threads, threads) << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesByClusters, ParEngineCsrmv,
    ::testing::Values(
        ParCase{sparse::MatrixFamily::kUniform, 2, true},
        ParCase{sparse::MatrixFamily::kUniform, 4, true},
        ParCase{sparse::MatrixFamily::kUniform, 8, true},
        ParCase{sparse::MatrixFamily::kUniform, 4, false},
        ParCase{sparse::MatrixFamily::kUniform, 8, false},
        ParCase{sparse::MatrixFamily::kBanded, 4, true},
        ParCase{sparse::MatrixFamily::kBanded, 8, false},
        ParCase{sparse::MatrixFamily::kPowerLaw, 4, true},
        ParCase{sparse::MatrixFamily::kPowerLaw, 8, true},
        ParCase{sparse::MatrixFamily::kPowerLaw, 2, false},
        ParCase{sparse::MatrixFamily::kTorus, 4, true},
        ParCase{sparse::MatrixFamily::kTorus, 8, true}),
    [](const auto& info) {
      std::string name = sparse::to_string(info.param.family);
      name += "_x" + std::to_string(info.param.clusters);
      name += info.param.steal ? "_steal" : "_static";
      return name;
    });

TEST(ParEngineCsrmv, SingleClusterFallsBackToSerialEngine) {
  Rng rng(7101);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 128, 128, 12);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 1;
  cfg.system.host_threads = 8;
  const auto r = run_csrmv_system(a, x, cfg);
  ASSERT_FALSE(r.system.aborted);
  EXPECT_EQ(r.system.par.host_threads, 1u);
  EXPECT_EQ(r.system.par.rounds, 0u);
}

TEST(ParEngineCsrmv, FastForwardOffStillBitwiseEqual) {
  Rng rng(7102);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 192, 160, 10);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 4;
  cfg.system.fast_forward = false;
  cfg.system.host_threads = 1;
  const auto serial = run_csrmv_system(a, x, cfg);
  cfg.system.host_threads = 4;
  const auto par = run_csrmv_system(a, x, cfg);
  expect_csrmv_equal(par, serial);
}

TEST(ParEngineCsrmv, TraceBytesIdenticalToSerial) {
  Rng rng(7103);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 96, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 4;
  trace::RingBufferSink serial_sink;
  cfg.trace_sink = &serial_sink;
  cfg.system.host_threads = 1;
  const auto serial = run_csrmv_system(a, x, cfg);
  trace::RingBufferSink par_sink;
  cfg.trace_sink = &par_sink;
  cfg.system.host_threads = 4;
  const auto par = run_csrmv_system(a, x, cfg);
  expect_csrmv_equal(par, serial);
  ASSERT_GT(serial_sink.size(), 0u);
  EXPECT_EQ(trace::to_chrome_json(par_sink), trace::to_chrome_json(serial_sink));
}

TEST(ParEngineCsrmv, QuantumStatsAccountForParallelProgress) {
  // A healthy parallel run must actually run cycles outside lockstep and
  // account every lane quantum in the histogram.
  Rng rng(7104);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 512, 256, 24);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 4;
  cfg.system.host_threads = 4;
  const auto r = run_csrmv_system(a, x, cfg);
  ASSERT_FALSE(r.system.aborted);
  const ParStats& p = r.system.par;
  EXPECT_EQ(p.host_threads, 4u);
  EXPECT_GT(p.rounds, 0u);
  EXPECT_GT(p.lockstep_cycles, 0u);
  EXPECT_GT(p.parallel_ticks + p.ff_credited, 0u);
  std::uint64_t hist_total = 0;
  for (unsigned i = 0; i < ParStats::kQuantumBuckets; ++i) {
    hist_total += p.quantum_hist[i];
  }
  EXPECT_EQ(hist_total, p.quantum_count);
  EXPECT_LE(p.lockstep_cycles, r.system.cycles + 1);
}

// --- CsrMM: serial vs parallel -----------------------------------------------

void expect_csrmm_equal(const SysCsrmmResult& a, const SysCsrmmResult& b) {
  expect_system_equal(a.system, b.system);
  ASSERT_EQ(a.y.rows(), b.y.rows());
  ASSERT_EQ(a.y.cols(), b.y.cols());
  for (std::size_t i = 0; i < a.y.rows(); ++i) {
    for (std::size_t j = 0; j < a.y.cols(); ++j) {
      EXPECT_EQ(a.y.at(i, j), b.y.at(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(a.tile_owner, b.tile_owner);
}

struct MmParCase {
  unsigned clusters;
  bool steal;
};

class ParEngineCsrmm : public ::testing::TestWithParam<MmParCase> {};

TEST_P(ParEngineCsrmm, BitwiseEqualToSerialAtEveryThreadCount) {
  const auto [clusters, steal] = GetParam();
  Rng rng(7200);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 128, 96, 10);
  const auto b = sparse::random_dense_matrix(rng, a.cols(), 24);
  SysCsrmmConfig cfg;
  cfg.system.num_clusters = clusters;
  cfg.steal = steal;
  cfg.system.host_threads = 1;
  const auto serial = run_csrmm_system(a, b, cfg);
  ASSERT_FALSE(serial.system.aborted);
  for (const unsigned threads : {2u, 8u}) {
    cfg.system.host_threads = threads;
    const auto par = run_csrmm_system(a, b, cfg);
    expect_csrmm_equal(par, serial);
  }
}

INSTANTIATE_TEST_SUITE_P(ClustersBySteal, ParEngineCsrmm,
                         ::testing::Values(MmParCase{2, true},
                                           MmParCase{4, true},
                                           MmParCase{8, true},
                                           MmParCase{4, false},
                                           MmParCase{8, false}),
                         [](const auto& info) {
                           std::string name =
                               "x" + std::to_string(info.param.clusters);
                           name += info.param.steal ? "_steal" : "_static";
                           return name;
                         });

// --- Fault parity under threads ----------------------------------------------

// A wedged SysBarrier (release dropped) must classify identically —
// fault code, detection cycle, stall buckets — whether the serial or the
// parallel engine ran: the parallel engine's free-run terminal release
// must burn held lanes to the same watchdog/budget points.
TEST(ParEngineFaults, DroppedSysBarrierParity) {
  Rng rng(7300);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 96, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  for (const bool steal : {false, true}) {
    SysCsrmvConfig cfg;
    cfg.system.num_clusters = 4;
    cfg.steal = steal;
    cfg.inject.drop_sys_barrier = true;
    cfg.max_cycles = 400'000;
    cfg.system.host_threads = 1;
    const auto serial = run_csrmv_system(a, x, cfg);
    ASSERT_TRUE(serial.system.aborted) << "steal " << steal;
    for (const unsigned threads : {2u, 8u}) {
      cfg.system.host_threads = threads;
      const auto par = run_csrmv_system(a, x, cfg);
      expect_csrmv_equal(par, serial);
    }
  }
}

TEST(ParEngineFaults, DroppedClusterBarrierParity) {
  // The system CsrMV workers are controller-paced and never rendezvous on
  // the cluster HW barrier, so this injection stays armed-but-unconsumed:
  // the run completes clean. What must hold is that arming it perturbs the
  // parallel engine exactly as little as the serial one — byte for byte.
  Rng rng(7301);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 96, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 4;
  cfg.inject.drop_cluster_barrier = true;
  cfg.max_cycles = 400'000;
  cfg.system.host_threads = 1;
  const auto serial = run_csrmv_system(a, x, cfg);
  ASSERT_FALSE(serial.system.aborted);
  for (const unsigned threads : {2u, 8u}) {
    cfg.system.host_threads = threads;
    const auto par = run_csrmv_system(a, x, cfg);
    expect_csrmv_equal(par, serial);
  }
}

TEST(ParEngineFaults, StalledDmaParity) {
  Rng rng(7302);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 96, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  SysCsrmvConfig cfg;
  cfg.system.num_clusters = 4;
  cfg.inject.stall_dma = true;
  cfg.max_cycles = 20'000;
  cfg.system.host_threads = 1;
  const auto serial = run_csrmv_system(a, x, cfg);
  ASSERT_TRUE(serial.system.aborted);
  for (const unsigned threads : {2u, 8u}) {
    cfg.system.host_threads = threads;
    const auto par = run_csrmv_system(a, x, cfg);
    expect_csrmv_equal(par, serial);
  }
}

}  // namespace
}  // namespace issr::system
