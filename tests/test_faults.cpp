// Fault taxonomy, run watchdog, and sweep fault-isolation tests: the
// exact no-progress watchdog (barrier-drop deadlocks detected the moment
// the horizon empties, far before any cycle budget), --max-cycles
// classification, deterministic fault injection end to end through
// run_scenario/run_sweep, host-exception isolation and retry, fail-fast
// skipping, and the v6 reporting bar — injected sweeps stay bytewise
// jobs-invariant, and a no-op injection plan emits bytes identical to no
// plan at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/sim.hpp"
#include "driver/report.hpp"
#include "driver/runner.hpp"
#include "driver/scenario.hpp"
#include "driver/sweep.hpp"
#include "isa/assembler.hpp"
#include "kernels/kargs.hpp"
#include "sim/fault.hpp"
#include "sparse/csr.hpp"
#include "sparse/generate.hpp"
#include "system/csrmv_sys.hpp"
#include "trace/ring.hpp"

namespace issr {
namespace {

using driver::Kernel;
using driver::RunOptions;
using driver::Scenario;
using driver::ScenarioMatrix;
using driver::ScenarioResult;
using driver::SweepSpec;
using sim::FaultCode;
using sim::FaultPlan;
using sim::InjectKind;

FaultPlan plan(const std::string& text) {
  FaultPlan p;
  std::string error;
  EXPECT_TRUE(FaultPlan::parse(text, p, error)) << error;
  return p;
}

/// Small all-CC scenario list (cheap rows for sweep-isolation tests).
std::vector<Scenario> cc_scenarios() {
  ScenarioMatrix m;
  m.kernels = {Kernel::kCsrmv};
  m.variants = {kernels::Variant::kBase, kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16, sparse::IndexWidth::kU32};
  m.densities = {0.1};
  m.cores = {1};
  m.rows = 24;
  m.cols = 48;
  return m.expand();
}

Scenario single(unsigned cores, unsigned clusters) {
  ScenarioMatrix m;
  m.kernels = {Kernel::kCsrmv};
  m.variants = {kernels::Variant::kIssr};
  m.widths = {sparse::IndexWidth::kU16};
  m.densities = {0.1};
  m.cores = {cores};
  m.clusters = {clusters};
  m.rows = 32;
  m.cols = 48;
  auto list = m.expand();
  EXPECT_EQ(list.size(), 1u);
  return list.at(0);
}

driver::SweepOutcome sweep(const std::vector<Scenario>& scenarios,
                           unsigned jobs, const FaultPlan* inject = nullptr,
                           unsigned retries = 0, bool fail_fast = false) {
  SweepSpec spec;
  spec.scenarios = scenarios;
  spec.jobs = jobs;
  spec.retries = retries;
  spec.fail_fast = fail_fast;
  spec.options.inject = inject;
  return driver::run_sweep(spec);
}

// --- FaultPlan parsing -------------------------------------------------------

TEST(FaultPlan, ParsesKindsAndTargets) {
  const FaultPlan p = plan("corrupt,barrier-drop@sys,throw@csrmv/issr");
  ASSERT_EQ(p.injections().size(), 3u);
  EXPECT_TRUE(p.applies(InjectKind::kCorrupt, "anything"));
  EXPECT_TRUE(p.applies(InjectKind::kBarrierDrop, "csrmv/sys/x2"));
  EXPECT_FALSE(p.applies(InjectKind::kBarrierDrop, "csrmv/cc"));
  EXPECT_TRUE(p.applies(InjectKind::kThrow, "csrmv/issr/u16"));
  EXPECT_FALSE(p.applies(InjectKind::kThrow, "csrmv/base/u16"));
  EXPECT_FALSE(p.applies(InjectKind::kDmaStall, "anything"));
}

TEST(FaultPlan, RejectsUnknownKindWithMessage) {
  FaultPlan p;
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("corrupt,frobnicate", p, error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;
  EXPECT_FALSE(FaultPlan::parse("", p, error));
  EXPECT_FALSE(FaultPlan::parse(",", p, error));
}

TEST(FaultCodes, TokensAreStable) {
  // The results-file `fault` column and fault_* metric suffixes; a
  // rename is a schema break and must fail here first.
  EXPECT_STREQ(sim::to_string(FaultCode::kWatchdogNoProgress),
               "watchdog_no_progress");
  EXPECT_STREQ(sim::to_string(FaultCode::kBarrierDeadlock),
               "barrier_deadlock");
  EXPECT_STREQ(sim::to_string(FaultCode::kCycleLimit), "cycle_limit");
  EXPECT_STREQ(sim::to_string(FaultCode::kInvalidInput), "invalid_input");
  EXPECT_STREQ(sim::to_string(FaultCode::kInjected), "injected");
  EXPECT_STREQ(sim::to_string(FaultCode::kHostException), "host_exception");
}

// --- validate_csr ------------------------------------------------------------

TEST(ValidateCsr, AcceptsWellFormedAndNamesFirstDefect) {
  const std::vector<std::uint32_t> ptr = {0, 2, 2, 3};
  const std::vector<std::uint32_t> idcs = {0, 3, 1};
  const std::vector<double> vals = {1.0, 2.0, 3.0};
  std::string err;
  EXPECT_TRUE(sparse::validate_csr(3, 4, ptr, idcs, vals, err)) << err;

  auto bad = idcs;
  bad[1] = 4;  // == cols: out of bounds
  EXPECT_FALSE(sparse::validate_csr(3, 4, ptr, bad, vals, err));
  EXPECT_NE(err.find("out of bounds"), std::string::npos) << err;

  auto short_ptr = ptr;
  short_ptr.back() = 2;  // disagrees with the value count
  EXPECT_FALSE(sparse::validate_csr(3, 4, short_ptr, idcs, vals, err));

  auto unsorted = idcs;
  unsorted[0] = 3;
  unsorted[1] = 3;  // duplicate column in row 0
  EXPECT_FALSE(sparse::validate_csr(3, 4, ptr, unsorted, vals, err));
  EXPECT_NE(err.find("row 0"), std::string::npos) << err;
}

// --- Watchdog: exact no-progress detection -----------------------------------

TEST(Watchdog, ClusterBarrierDropIsExactDeadlock) {
  // Workers rendezvous on the HW barrier; swallowing the release parks
  // every core on the barrier CSR with an empty event horizon, so the
  // watchdog proves the wedge the cycle it happens — no budget needed.
  cluster::ClusterConfig cfg;
  std::vector<std::shared_ptr<const isa::Program>> programs;
  for (unsigned w = 0; w < cfg.num_workers; ++w) {
    isa::Assembler a;
    kernels::emit_barrier(a);
    kernels::emit_halt(a);
    programs.push_back(std::make_shared<const isa::Program>(a.assemble()));
  }
  cluster::Cluster cl(cfg, std::move(programs));
  cl.barrier().inject_drop_next_release();
  const auto r = cl.run(1'000'000);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.fault.code, FaultCode::kBarrierDeadlock);
  EXPECT_LT(r.fault.cycle, 1'000'000u) << "detection must be exact, not "
                                          "budget-driven";
  EXPECT_EQ(r.fault.last_next_event, kCycleNever);
  EXPECT_EQ(r.fault.harts.size(), cfg.num_workers);
  EXPECT_NE(r.fault.barrier.find("arrived"), std::string::npos)
      << r.fault.barrier;
  EXPECT_NE(r.fault.describe().find("barrier_deadlock"), std::string::npos);
}

TEST(Watchdog, CleanBarrierRunHasNoFault) {
  cluster::ClusterConfig cfg;
  std::vector<std::shared_ptr<const isa::Program>> programs;
  for (unsigned w = 0; w < cfg.num_workers; ++w) {
    isa::Assembler a;
    kernels::emit_barrier(a);
    kernels::emit_halt(a);
    programs.push_back(std::make_shared<const isa::Program>(a.assemble()));
  }
  cluster::Cluster cl(cfg, std::move(programs));
  const auto r = cl.run(1'000'000);
  EXPECT_FALSE(r.fault);
  EXPECT_FALSE(r.aborted);
}

TEST(Watchdog, EmitsWatchdogTraceTrack) {
  // An aborted run leaves one instant on a dedicated `watchdog` track
  // naming the fault code — the trace-side breadcrumb for a postmortem.
  core::CcSim sim;
  isa::Assembler a;
  const isa::Label spin = a.here();
  a.j(spin);
  sim.set_program(a.assemble());
  trace::RingBufferSink sink;
  sim.attach_trace(sink);
  const auto r = sim.run(100);
  ASSERT_EQ(r.fault.code, FaultCode::kCycleLimit);
  bool found = false;
  for (const auto& t : sink.tracks()) found |= t.name == "watchdog";
  EXPECT_TRUE(found) << "missing watchdog track";
  bool instant = false;
  for (const auto& e : sink.events()) {
    if (e.phase == trace::Phase::kInstant &&
        std::string(e.name) == "cycle_limit") {
      instant = true;
      EXPECT_EQ(e.ts, 100u);
    }
  }
  EXPECT_TRUE(instant) << "missing fault-code instant";
}

// --- Injection through run_scenario ------------------------------------------

TEST(Inject, CycleBudgetYieldsCycleLimitFaultRow) {
  RunOptions opts;
  opts.max_cycles = 16;  // far below any real CsrMV run
  const ScenarioResult r = driver::run_scenario(single(1, 1), opts);
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.fault.code, FaultCode::kCycleLimit);
  EXPECT_STREQ(driver::row_status(r), "fault");
  EXPECT_EQ(r.metrics.value("fault_cycle_limit"), 1.0);
}

TEST(Inject, CorruptWorkloadIsRejectedAsInvalidInput) {
  const FaultPlan p = plan("corrupt");
  RunOptions opts;
  opts.inject = &p;
  const ScenarioResult r = driver::run_scenario(single(1, 1), opts);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.fault.code, FaultCode::kInvalidInput);
  EXPECT_NE(r.fault.message.find("corrupted workload rejected"),
            std::string::npos)
      << r.fault.message;
}

TEST(Inject, FaultMarkerSkipsTheRun) {
  const FaultPlan p = plan("fault");
  RunOptions opts;
  opts.inject = &p;
  const ScenarioResult r = driver::run_scenario(single(1, 1), opts);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.fault.code, FaultCode::kInjected);
  EXPECT_EQ(r.cycles, 0u) << "the simulation must not have run";
}

TEST(Inject, SysBarrierDropDeadlocksExactly) {
  // Dropping the inter-cluster barrier release wedges the system; the
  // budget below is a test safety net the exact watchdog must beat.
  const FaultPlan p = plan("barrier-drop");
  RunOptions opts;
  opts.inject = &p;
  opts.max_cycles = 400'000;
  const ScenarioResult r = driver::run_scenario(single(2, 2), opts);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.fault.code, FaultCode::kBarrierDeadlock)
      << r.fault.describe();
  EXPECT_LT(r.fault.cycle, 400'000u);
  EXPECT_EQ(r.metrics.value("fault_barrier_deadlock"), 1.0);
}

TEST(Inject, DmaStallBurnsToTheBudget) {
  // A frozen DMA keeps the controller polling (forward progress every
  // cycle, never completion), so this hang is only catchable by budget.
  const FaultPlan p = plan("dma-stall");
  RunOptions opts;
  opts.inject = &p;
  opts.max_cycles = 20'000;
  const ScenarioResult r = driver::run_scenario(single(4, 1), opts);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.fault.code, FaultCode::kCycleLimit) << r.fault.describe();
  EXPECT_EQ(r.fault.cycle, 20'000u);
}

// --- Pinned fault records ----------------------------------------------------
//
// How runs fail is pinned field by field: the watchdog, the cycle budget,
// and every injection kind detect at a fixed cycle with fixed detail.
// The records were captured while the core still had a second,
// instruction-interpreting execution tier, which failed identically.

/// The fault fields a run's failure is pinned by: code, detection cycle,
/// last engine horizon, per-hart pc/halted, and the stall buckets.
std::string fault_record(const sim::Fault& f) {
  std::string s = std::string(sim::to_string(f.code)) +
                  " cycle=" + std::to_string(f.cycle) +
                  " next=" + std::to_string(f.last_next_event) + " harts=";
  for (const auto& h : f.harts) {
    char pc[24];
    std::snprintf(pc, sizeof pc, "%llx", static_cast<unsigned long long>(h.pc));
    s += std::string(pc) + (h.halted ? "h," : ",");
  }
  s += " stalls=";
  for (const std::uint64_t c : f.stalls.counts) s += std::to_string(c) + ",";
  return s;
}

TEST(FaultRecord, WatchdogNoProgressDetectsAtPinnedCycle) {
  // The FREP consumes one more stream element than the affine job
  // supplies, so the FPU subsystem waits forever on a lane that can never
  // produce: the event horizon empties.
  core::CcSim sim;
  const addr_t data = sim.alloc(64);
  isa::Assembler a;
  kernels::emit_affine_job(a, 0, data, /*n=*/1, /*stride=*/8);
  kernels::emit_ssr_enable(a);
  a.li(isa::kT0, 1);  // two iterations; the job supplies one element
  a.frep(isa::kT0, 1);
  a.fadd_d(isa::kFt2, isa::kFt0, isa::kFt2);
  kernels::emit_sync_and_disable(a);
  kernels::emit_halt(a);
  sim.set_program(a.assemble());
  const core::CcSimResult r = sim.run(1'000'000);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.cycles, r.fault.cycle);
  EXPECT_EQ(fault_record(r.fault),
            "watchdog_no_progress cycle=15 next=18446744073709551615 "
            "harts=40000038, stalls=1,13,0,0,0,0,1,0,0,");
}

TEST(FaultRecord, CycleLimitFaultsAtPinnedCycle) {
  core::CcSim sim;
  isa::Assembler a;
  const isa::Label loop = a.here();
  a.j(loop);
  sim.set_program(a.assemble());
  const core::CcSimResult r = sim.run(100);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.cycles, 100u);
  EXPECT_EQ(fault_record(r.fault),
            "cycle_limit cycle=100 next=100 harts=40000000, "
            "stalls=0,100,0,0,0,0,0,0,0,");
}

TEST(FaultRecord, ClusterBarrierDropDeadlocksAtPinnedCycle) {
  cluster::ClusterConfig cfg;
  std::vector<std::shared_ptr<const isa::Program>> programs;
  for (unsigned w = 0; w < cfg.num_workers; ++w) {
    isa::Assembler a;
    kernels::emit_barrier(a);
    kernels::emit_halt(a);
    programs.push_back(std::make_shared<const isa::Program>(a.assemble()));
  }
  cluster::Cluster cl(cfg, std::move(programs));
  cl.barrier().inject_drop_next_release();
  const cluster::ClusterResult r = cl.run(1'000'000);
  ASSERT_TRUE(r.fault);
  EXPECT_EQ(r.cycles, 1u);
  EXPECT_EQ(fault_record(r.fault),
            "barrier_deadlock cycle=1 next=18446744073709551615 "
            "harts=40000000,40000000,40000000,40000000,40000000,40000000,"
            "40000000,40000000, stalls=0,0,8,0,0,0,0,0,0,");
}

/// 96 x 96 CsrMV (8 per row) on a 4-cluster System, with `inject` armed.
system::SysCsrmvResult run_injected_system(std::uint64_t seed, bool steal,
                                           const sim::InjectSet& inject,
                                           cycle_t max_cycles) {
  Rng rng(seed);
  const auto a = sparse::random_fixed_row_nnz_matrix(rng, 96, 96, 8);
  const auto x = sparse::random_dense_vector(rng, a.cols());
  system::SysCsrmvConfig cfg;
  cfg.system.num_clusters = 4;
  cfg.steal = steal;
  cfg.inject = inject;
  cfg.max_cycles = max_cycles;
  return system::run_csrmv_system(a, x, cfg);
}

TEST(FaultRecord, SysBarrierDropDeadlocksAtPinnedCycle) {
  sim::InjectSet inject;
  inject.drop_sys_barrier = true;
  const char* const pinned[] = {
      // steal off
      "barrier_deadlock cycle=201 next=18446744073709551615 harts=4000016ch,"
      "4000016ch,4000016ch,4000016ch,4000016ch,4000016ch,4000016ch,"
      "40000168h,4000016ch,4000016ch,4000016ch,4000016ch,4000016ch,"
      "4000016ch,4000016ch,40000168h,4000016ch,4000016ch,4000016ch,"
      "4000016ch,4000016ch,4000016ch,4000016ch,40000168h,4000016ch,"
      "4000016ch,4000016ch,4000016ch,4000016ch,4000016ch,4000016ch,"
      "40000168h, stalls=1056,4516,0,2,0,247,0,611,0,",
      // steal on
      "barrier_deadlock cycle=416 next=18446744073709551615 harts=4000273ch,"
      "4000273ch,4000273ch,400002bch,4000273ch,4000273ch,4000273ch,"
      "400002bch,4000273ch,4000273ch,4000273ch,400002bch,4000273ch,"
      "4000273ch,4000273ch,400002bch,4000273ch,4000273ch,4000273ch,"
      "400002bch,4000273ch,4000273ch,4000273ch,400002bch,4000273ch,"
      "4000273ch,4000273ch,400002bch,4000273ch,4000273ch,4000273ch,"
      "400002bch, stalls=1056,11440,0,0,0,57,0,759,0,",
  };
  for (const bool steal : {false, true}) {
    const auto r = run_injected_system(7300, steal, inject, 400'000);
    ASSERT_TRUE(r.system.fault) << "steal " << steal;
    EXPECT_EQ(r.system.cycles, r.system.fault.cycle);
    EXPECT_EQ(fault_record(r.system.fault), pinned[steal ? 1 : 0])
        << "steal " << steal;
  }
}

TEST(FaultRecord, SysStalledDmaBurnsTheBudgetAtPinnedCycle) {
  sim::InjectSet inject;
  inject.stall_dma = true;
  const auto r = run_injected_system(7302, true, inject, 20'000);
  ASSERT_TRUE(r.system.fault);
  EXPECT_EQ(r.system.cycles, 20'000u);
  EXPECT_EQ(fault_record(r.system.fault),
            "cycle_limit cycle=20000 next=20000 harts=40000000,40000000,"
            "40000000,40000000,40000000,40000000,40000000,40000000,"
            "4000273ch,4000273ch,4000273ch,400002bch,4000273ch,4000273ch,"
            "4000273ch,400002bch,4000273ch,4000273ch,4000273ch,400002bch,"
            "4000273ch,4000273ch,4000273ch,400002bch,4000273ch,4000273ch,"
            "4000273ch,400002bch,4000273ch,4000273ch,4000273ch,400002bch,"
            " stalls=858,169180,0,0,0,28,0,469934,0,");
}

TEST(FaultRecord, SysArmedClusterBarrierDropFinishesAtPinnedCycle) {
  // The System CsrMV workers are controller-paced and never rendezvous on
  // the cluster HW barrier, so this injection stays armed but unconsumed
  // and the run finishes clean.
  sim::InjectSet inject;
  inject.drop_cluster_barrier = true;
  const auto r = run_injected_system(7301, true, inject, 400'000);
  EXPECT_FALSE(r.system.fault) << r.system.fault.describe();
  EXPECT_EQ(r.system.cycles, 416u);
}

TEST(FaultRecord, EveryInjectKindMatchesItsPin) {
  // Each kind rides its canonical scenario/budget (the ones the Inject
  // tests above pin).
  struct Case {
    const char* kind;
    unsigned cores, clusters;
    cycle_t max_cycles;
    const char* pinned;  ///< status, fault code and cycle, core-cycles
  };
  const Case cases[] = {
      {"corrupt", 1, 1, 0, "fault invalid_input cycle=0 core_cycles=0"},
      {"barrier-drop", 2, 2, 400'000,
       "fault barrier_deadlock cycle=501 core_cycles=2004"},
      {"dma-stall", 4, 1, 20'000,
       "fault cycle_limit cycle=20000 core_cycles=80000"},
      {"throw", 1, 1, 0, "fault host_exception cycle=0 core_cycles=0"},
      {"flaky", 1, 1, 0, "fault host_exception cycle=0 core_cycles=0"},
      {"fault", 1, 1, 0, "fault injected cycle=0 core_cycles=0"},
  };
  for (const auto& c : cases) {
    const FaultPlan p = plan(c.kind);
    SweepSpec spec;
    spec.scenarios = {single(c.cores, c.clusters)};
    spec.jobs = 1;
    spec.options.inject = &p;
    spec.options.max_cycles = c.max_cycles;
    const auto results = driver::run_sweep(spec).results;
    ASSERT_EQ(results.size(), 1u) << c.kind;
    const ScenarioResult& r = results[0];
    EXPECT_EQ(std::string(driver::row_status(r)) + " " +
                  sim::to_string(r.fault.code) +
                  " cycle=" + std::to_string(r.fault.cycle) +
                  " core_cycles=" + std::to_string(r.core_cycles),
              c.pinned)
        << "inject kind " << c.kind;
  }
}

// --- Sweep isolation, retry, fail-fast ---------------------------------------

TEST(SweepFaults, OneThrowingRowLeavesEveryOtherRowIntact) {
  const auto scenarios = cc_scenarios();
  ASSERT_GE(scenarios.size(), 3u);
  const std::string victim = scenarios[1].name();
  const FaultPlan p = plan("throw@" + victim);

  const auto ref = sweep(scenarios, 1);  // clean reference
  for (const unsigned jobs : {1u, 2u, 8u}) {
    const auto out = sweep(scenarios, jobs, &p);
    ASSERT_EQ(out.results.size(), scenarios.size());
    EXPECT_EQ(out.stats.fault_rows, 1u);
    for (std::size_t i = 0; i < out.results.size(); ++i) {
      const auto& r = out.results[i];
      if (scenarios[i].name() == victim) {
        ASSERT_TRUE(r.fault);
        EXPECT_EQ(r.fault.code, FaultCode::kHostException);
        EXPECT_NE(r.fault.message.find("injected host exception"),
                  std::string::npos);
      } else {
        // Bytewise untouched by the neighbour's failure.
        EXPECT_FALSE(r.fault);
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(driver::results_to_json({r}),
                  driver::results_to_json({ref.results[i]}));
      }
    }
    // The whole injected document is jobs-invariant too.
    EXPECT_EQ(driver::results_to_json(out.results),
              driver::results_to_json(sweep(scenarios, 1, &p).results))
        << "jobs=" << jobs;
  }
}

TEST(SweepFaults, RetryHealsFlakyHostDeterministically) {
  const auto scenarios = cc_scenarios();
  const auto ref = sweep(scenarios, 2);
  const FaultPlan flaky = plan("flaky");

  // With one retry every row heals, and — because retry reruns the same
  // pure function with the same seed — the result files are bytewise
  // identical to the never-failed sweep.
  const auto healed = sweep(scenarios, 2, &flaky, /*retries=*/1);
  EXPECT_EQ(healed.stats.fault_rows, 0u);
  EXPECT_EQ(healed.stats.host_retries, scenarios.size());
  EXPECT_EQ(healed.host_metrics.value("host_retries"),
            static_cast<double>(scenarios.size()));
  EXPECT_EQ(driver::results_to_json(healed.results),
            driver::results_to_json(ref.results));
  EXPECT_EQ(driver::results_to_csv(healed.results),
            driver::results_to_csv(ref.results));

  // Without retries every row records the host exception.
  const auto failed = sweep(scenarios, 2, &flaky, /*retries=*/0);
  EXPECT_EQ(failed.stats.fault_rows, scenarios.size());
  for (const auto& r : failed.results) {
    ASSERT_TRUE(r.fault);
    EXPECT_EQ(r.fault.code, FaultCode::kHostException);
  }
}

TEST(SweepFaults, SimulatedFaultsAreNeverRetried) {
  const auto scenarios = cc_scenarios();
  const FaultPlan p = plan("fault");
  const auto out = sweep(scenarios, 2, &p, /*retries=*/3);
  EXPECT_EQ(out.stats.host_retries, 0u)
      << "simulated faults are deterministic; retrying them is waste";
  EXPECT_EQ(out.stats.fault_rows, scenarios.size());
}

TEST(SweepFaults, FailFastSkipsRemainingRows) {
  const auto scenarios = cc_scenarios();
  const FaultPlan p = plan("fault");
  const auto out =
      sweep(scenarios, 1, &p, /*retries=*/0, /*fail_fast=*/true);
  EXPECT_EQ(out.stats.fault_rows, 1u);
  EXPECT_EQ(out.stats.skipped_rows, scenarios.size() - 1);
  // Only the run that happened counts, in the stats and the host metrics.
  EXPECT_EQ(out.stats.runs, 1u);
  EXPECT_EQ(out.host_metrics.value("host_runs"), 1.0);
  unsigned skipped = 0;
  for (const auto& r : out.results) {
    if (r.skipped) {
      ++skipped;
      EXPECT_STREQ(driver::row_status(r), "skipped");
      EXPECT_FALSE(r.fault);
    }
  }
  EXPECT_EQ(skipped, scenarios.size() - 1);

  // One worker dispatches in stable descending estimated_cost order, so
  // with every row faulting the one that ran is the costliest scenario.
  std::vector<std::size_t> order(scenarios.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return driver::estimated_cost(scenarios[a]) >
                            driver::estimated_cost(scenarios[b]);
                   });
  EXPECT_TRUE(out.results[order.front()].fault);

  // Faulting a mid-cost row: exactly the rows ahead of it in that order
  // ran (and passed), and every row behind it was skipped.
  const std::size_t mid = order.size() / 2;
  ASSERT_GT(mid, 0u);
  const FaultPlan one = plan("fault@" + scenarios[order[mid]].name());
  const auto cut =
      sweep(scenarios, 1, &one, /*retries=*/0, /*fail_fast=*/true);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& r = cut.results[order[k]];
    const char* want = k < mid ? "ok" : k == mid ? "fault" : "skipped";
    EXPECT_STREQ(driver::row_status(r), want) << r.scenario.name();
  }
  EXPECT_EQ(cut.stats.runs, mid + 1);
  EXPECT_EQ(cut.host_metrics.value("host_runs"),
            static_cast<double>(mid + 1));
}

// --- v6 reporting ------------------------------------------------------------

TEST(SweepFaults, FaultRowsCarryV6ColumnsAndDiagnostics) {
  const auto scenarios = cc_scenarios();
  const FaultPlan p = plan("fault");
  const auto out = sweep(scenarios, 2, &p);
  const std::string json = driver::results_to_json(out.results);
  EXPECT_NE(json.find("\"status\": \"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"fault\": \"injected\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_detail\": {\"code\": \"injected\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fault_injected\": 1"), std::string::npos);
  const std::string csv = driver::results_to_csv(out.results);
  EXPECT_NE(csv.find(",status,fault,"), std::string::npos);
  EXPECT_NE(csv.find(",false,fault,injected,"), std::string::npos);
}

TEST(SweepFaults, NoOpInjectionPlanIsByteIdenticalToNoPlan) {
  // A plan whose target matches nothing must be indistinguishable from
  // running without --inject — the injection-off byte-identity bar.
  const auto scenarios = cc_scenarios();
  const FaultPlan miss = plan("throw@no_such_scenario,corrupt@nope");
  const auto ref = sweep(scenarios, 1);
  for (const unsigned jobs : {1u, 2u, 8u}) {
    const auto out = sweep(scenarios, jobs, &miss);
    EXPECT_EQ(driver::results_to_json(out.results),
              driver::results_to_json(ref.results))
        << "jobs=" << jobs;
    EXPECT_EQ(driver::results_to_csv(out.results),
              driver::results_to_csv(ref.results))
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace issr
