#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/arena.hpp"
#include "common/log.hpp"
#include "driver/hostprof.hpp"

namespace issr::driver {

namespace {

/// Per-nonzero simulated-cycle weight of a kernel variant (from the
/// paper's per-nnz instruction counts: BASE ~9, SSR ~7, ISSR ~1.3–1.5).
double variant_weight(kernels::Variant v, sparse::IndexWidth w) {
  switch (v) {
    case kernels::Variant::kBase:
      return 9.5;
    case kernels::Variant::kSsr:
      return 7.0;
    case kernels::Variant::kIssr:
      return w == sparse::IndexWidth::kU16 ? 1.4 : 1.6;
  }
  return 8.0;
}

/// Deterministic fingerprint of the fields a rep must reproduce; used to
/// assert rep-over-rep determinism without keeping every rep's record.
std::uint64_t result_fingerprint(const ScenarioResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over selected fields
  const auto mix = [&h](std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(r.cycles);
  mix(r.core_cycles);
  mix(r.macs);
  mix(r.nnz);
  mix(static_cast<std::uint64_t>(r.rows) << 32 | r.cols);
  std::uint64_t util_bits = 0;
  static_assert(sizeof util_bits == sizeof r.fpu_util);
  std::memcpy(&util_bits, &r.fpu_util, sizeof util_bits);
  mix(util_bits);
  mix(r.ok ? 1 : 0);
  mix(static_cast<std::uint64_t>(r.fault.code));
  mix(r.stalls.total());
  return h;
}

/// The row a task yields when a host exception escapes every retry: the
/// scenario's slot is preserved, the fault records what was thrown. A
/// pure function of (scenario, message), so injected-exception sweeps
/// stay bytewise deterministic at any job count.
ScenarioResult host_exception_row(const Scenario& s, std::exception_ptr e) {
  std::string what = "unknown host exception";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& x) {
    what = x.what();
  } catch (...) {
    // Not a std::exception: keep the generic message.
  }
  ScenarioResult out;
  out.scenario = s;
  out.ok = false;
  out.fault = sim::make_fault(sim::FaultCode::kHostException, what);
  metrics::Registry reg;
  reg.add(std::string("fault_") + sim::to_string(out.fault.code), 1);
  out.metrics.merge(reg.snapshot());
  return out;
}

/// One schedulable unit: rep `rep` of scenario `index`.
struct Task {
  std::uint32_t index = 0;
  std::uint32_t rep = 0;
};

}  // namespace

double estimated_cost(const Scenario& s) {
  // Expected simulated core-cycles, weighted by the relative host cost
  // of a simulated cycle on each engine. Exactness is irrelevant — the
  // scheduler only needs heavy cluster/BASE runs sorted ahead of light
  // ISSR ones — but the terms mirror the real cycle structure: per-nnz
  // streaming work plus per-row loop overhead.
  const bool is_spvv = s.kernel == Kernel::kSpvv;
  const double rows = is_spvv ? 1.0 : static_cast<double>(s.rows);
  const double nnz = rows * static_cast<double>(s.row_nnz());
  const double clusters = is_spvv ? 1.0 : std::max(1u, s.clusters);
  double cycles = nnz * variant_weight(s.variant, s.width) + rows * 8.0 + 200.0;
  if (!is_spvv && (s.cores > 1 || clusters > 1.0)) {
    // Cluster/system runs report core-cycles (cycles x total workers):
    // the row share per worker shrinks but every worker's cycle is
    // simulated, DMA tiling adds traffic, and the TCDM arbitration makes
    // a simulated cluster cycle ~1.5x the host cost of an ideal-memory
    // CC cycle. Cluster-ness multiplicity: every cluster replicates the
    // x load and the per-tile handshakes, and shared-bandwidth stalls
    // plus the inter-cluster barrier stretch lockstep cycles that all
    // clusters' workers then spend — both grow with the cluster count.
    cycles += static_cast<double>(s.cols) * 2.0 * clusters +
              static_cast<double>(s.cores) * 500.0 + clusters * 800.0;
    cycles *= 1.5;
    if (clusters > 1.0) cycles *= 1.0 + 0.15 * clusters;
    // nnz skew across cluster shards: the system's wall time tracks its
    // most loaded cluster, and core-cycles are wall x clusters x cores —
    // every cluster's workers spend the cycles the heaviest shard
    // stretches. For heavy-tailed families the heaviest share runs ~2x
    // the mean (work stealing amortizes whole tiles, but a power-law
    // hub row is an unsplittable serial chain), so without this term a
    // multi-cluster power-law run cost exactly its uniform twin and
    // dispatched far too late for its real wall time.
    if (clusters > 1.0 && s.family == sparse::MatrixFamily::kPowerLaw) {
      cycles *= 2.0;
    }
  }
  return cycles;
}

SweepOutcome run_sweep(const SweepSpec& spec) {
  using Clock = std::chrono::steady_clock;
  const auto t_start = Clock::now();

  SweepOutcome out;
  const std::size_t n = spec.scenarios.size();
  out.results.resize(n);
  out.run_seconds.assign(n, 0.0);
  const unsigned reps = std::max(1u, spec.reps);
  if (n == 0) return out;

  AssetCache assets;

  const std::size_t total_tasks = n * reps;
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, spec.jobs), total_tasks));

  // Reps re-simulate; they must not re-write trace files (two reps of
  // one scenario may run concurrently, and the rep-0 file is complete).
  const RunOptions& opts = spec.options;
  RunOptions rep_opts = opts;
  rep_opts.trace_dir.clear();

  // Host profiling tracks (one per worker + one for the engine phases).
  // The profiler only ever *records* what happened — nothing below reads
  // it back — so attaching one cannot change scheduling or results.
  HostProfiler* prof = spec.profiler;
  std::uint32_t phase_track = 0;
  std::vector<std::uint32_t> worker_tracks(workers, 0);
  if (prof != nullptr) {
    phase_track = prof->add_track("sweep", "phases");
    for (unsigned w = 0; w < workers; ++w) {
      worker_tracks[w] = prof->add_track("sweep", "worker " + std::to_string(w));
    }
    prof->begin(phase_track, "dispatch");
  }

  // Longest-expected-first: one task list holding the scenarios in
  // stable descending cost order, each scenario's reps right behind its
  // rep 0. Workers take tasks in list order from one shared cursor, so
  // an idle worker always gets the costliest task left.
  std::vector<double> cost(n);
  for (std::size_t i = 0; i < n; ++i) {
    cost[i] = estimated_cost(spec.scenarios[i]);
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return cost[a] > cost[b];
                   });
  std::vector<Task> tasks;
  tasks.reserve(total_tasks);
  for (const std::uint32_t i : order) {
    for (std::uint32_t rep = 0; rep < reps; ++rep) tasks.push_back({i, rep});
  }
  std::atomic<std::size_t> next{0};

  // Each task writes only its own slots: prints[k] (its result
  // fingerprint) for task k and, for a rep-0 task, its scenario's result
  // and run_seconds entry. The join orders those writes before every read.
  std::vector<std::uint64_t> prints(total_tasks, 0);
  // Shared run telemetry.
  std::atomic<std::size_t> finished{0};
  std::atomic<std::size_t> retries_total{0};
  // --fail-fast: raised by the worker that hits the first faulted row;
  // every worker checks it before taking another task. Rows never run
  // are marked `skipped` after the join.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> core_cycles{0};

  // --progress heartbeat state. Percent/ETA come from estimated_cost
  // fractions (the same model the task list is ordered by), MCPS from
  // the shared core-cycle counter. Everything goes to stderr only, so
  // stdout and the result documents are provably untouched by it.
  const double total_cost =
      reps * std::accumulate(cost.begin(), cost.end(), 0.0);
  std::atomic<std::uint64_t> done_cost{0};
  std::mutex prog_mu;
  Clock::time_point last_print = t_start;
  const auto progress_tick = [&](bool final) {
    if (!spec.progress) return;
    std::lock_guard<std::mutex> lock(prog_mu);
    const auto now = Clock::now();
    if (!final && now - last_print < std::chrono::milliseconds(100)) return;
    last_print = now;
    const double elapsed =
        std::chrono::duration<double>(now - t_start).count();
    const std::size_t done = finished.load(std::memory_order_relaxed);
    const double frac =
        total_cost > 0.0
            ? std::min(1.0, static_cast<double>(done_cost.load(
                                std::memory_order_relaxed)) /
                                total_cost)
            : 1.0;
    const double mcps =
        elapsed > 0.0
            ? static_cast<double>(
                  core_cycles.load(std::memory_order_relaxed)) /
                  elapsed / 1e6
            : 0.0;
    const double eta = frac > 0.0 ? elapsed * (1.0 - frac) / frac : 0.0;
    std::fprintf(stderr,
                 "\r[sweep] %zu/%zu runs  %5.1f%%  %7.1f MCPS  ETA %6.1fs%s",
                 done, total_tasks, frac * 100.0, mcps, eta,
                 final ? "\n" : "");
    std::fflush(stderr);
  };

  // Per-worker metric registries: share-nothing while the sweep runs,
  // merged into one host snapshot afterwards.
  std::vector<metrics::Registry> regs(workers);

  const auto worker_fn = [&](unsigned w) {
    Arena arena;
    const SweepContext ctx{&assets, &arena};
    metrics::Registry& reg = regs[w];
    reg.histogram("host_run_us", 0.0, 1e6, 20);
    const std::uint32_t track = prof != nullptr ? worker_tracks[w] : 0;
    std::uint64_t busy_us = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t k = next.fetch_add(1);
      if (k >= total_tasks) break;
      const Task t = tasks[k];
      const Scenario& s = spec.scenarios[t.index];
      const RunOptions& ro = t.rep == 0 ? opts : rep_opts;
      if (prof != nullptr) prof->begin(track, s.name());
      const auto run_t0 = Clock::now();
      // Fault isolation: a C++ exception escaping a run (host-side OOM,
      // I/O failure, an injected `throw`/`flaky`) fails this *row*, not
      // the sweep. Host exceptions are retried up to spec.retries times
      // with identical inputs (a run is a pure function of its
      // scenario); simulated faults come back as values inside `r` and
      // are never retried — they are deterministic.
      ScenarioResult r;
      for (unsigned attempt = 0;; ++attempt) {
        try {
          arena.reset();  // fresh pages for every attempt
          if (ro.inject != nullptr &&
              (ro.inject->applies(sim::InjectKind::kThrow, s.name()) ||
               (attempt == 0 &&
                ro.inject->applies(sim::InjectKind::kFlaky, s.name())))) {
            throw std::runtime_error("injected host exception (--inject)");
          }
          r = run_scenario(s, ro, ctx);
          break;
        } catch (...) {
          if (attempt < spec.retries) {
            retries_total.fetch_add(1, std::memory_order_relaxed);
            reg.add("host_retries", 1);
            continue;
          }
          r = host_exception_row(s, std::current_exception());
          break;
        }
      }
      const double run_us =
          std::chrono::duration<double, std::micro>(Clock::now() - run_t0)
              .count();
      if (prof != nullptr) prof->end(track, s.name());
      busy_us += static_cast<std::uint64_t>(run_us);
      reg.add("host_runs", 1);
      reg.record("host_run_us", run_us);
      core_cycles.fetch_add(r.core_cycles, std::memory_order_relaxed);
      const bool faulted = static_cast<bool>(r.fault);
      prints[k] = result_fingerprint(r);
      if (t.rep == 0) {
        out.run_seconds[t.index] = run_us * 1e-6;
        out.results[t.index] = std::move(r);
      }
      finished.fetch_add(1);
      done_cost.fetch_add(static_cast<std::uint64_t>(cost[t.index]),
                          std::memory_order_relaxed);
      if (spec.fail_fast && faulted) {
        stop.store(true, std::memory_order_release);
      }
      progress_tick(false);
    }
    reg.add("host_busy_us", busy_us);
    reg.observe_max("host_arena_reserved_bytes",
                    static_cast<double>(arena.reserved_bytes()));
  };

  if (prof != nullptr) {
    prof->end(phase_track, "dispatch");
    prof->begin(phase_track, "run");
  }
  if (workers == 1) {
    worker_fn(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_fn, w);
    for (auto& t : pool) t.join();
  }
  if (prof != nullptr) {
    prof->end(phase_track, "run");
    prof->begin(phase_track, "collect");
  }

  // A taken task always runs to the end, so every task below the cursor
  // ran and none above it did (only a --fail-fast stop leaves any).
  const std::size_t taken = std::min(next.load(), total_tasks);
  bool rep_mismatch = false;
  for (std::size_t k = 0; k < total_tasks; ++k) {
    const Task& t = tasks[k];
    if (k >= taken) {
      // Rows the stop preempted keep their scenario identity, so the
      // report still has one row per requested scenario, marked skipped.
      if (t.rep == 0) {
        out.results[t.index].scenario = spec.scenarios[t.index];
        out.results[t.index].skipped = true;
      }
    } else if (t.rep > 0 && prints[k] != prints[k - t.rep]) {
      // Rep determinism: every rep of a scenario must reproduce rep 0
      // exactly (the engine guarantees it; a mismatch means a modelling
      // bug and poisons the sweep).
      ISSR_ERROR("rep %u of %s diverged from rep 0", t.rep,
                 spec.scenarios[t.index].name().c_str());
      rep_mismatch = true;
    }
  }
  assert(!rep_mismatch && "rep produced a different result");
  if (rep_mismatch) {
    for (auto& r : out.results) r.ok = false;
  }

  out.stats.runs = total_tasks;
  out.stats.host_retries = retries_total.load();
  for (const auto& r : out.results) {
    if (r.skipped) {
      ++out.stats.skipped_rows;
    } else if (r.fault) {
      ++out.stats.fault_rows;
    }
  }
  out.stats.core_cycles = core_cycles.load();
  out.stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  out.stats.cache = assets.stats();

  // Host metrics: merge the per-worker registries (any merge order gives
  // the same snapshot — the contract tests/test_metrics.cpp asserts),
  // then fold in the sweep-global aggregates.
  for (const auto& reg : regs) out.host_metrics.merge(reg.snapshot());
  {
    metrics::Registry g;
    g.add("host_fault_rows", out.stats.fault_rows);
    g.add("host_skipped_rows", out.stats.skipped_rows);
    g.add("host_workload_builds", out.stats.cache.workload_builds);
    g.add("host_workload_hits", out.stats.cache.workload_hits);
    g.add("host_program_builds", out.stats.cache.program_builds);
    g.add("host_program_hits", out.stats.cache.program_hits);
    g.add("host_compiled_builds", out.stats.cache.compiled_builds);
    g.add("host_compiled_hits", out.stats.cache.compiled_hits);
    g.observe_max("host_workers", static_cast<double>(workers));
    g.observe_max("host_wall_seconds", out.stats.wall_seconds);
    if (out.stats.wall_seconds > 0.0) {
      g.observe_max("host_mcps",
                    static_cast<double>(out.stats.core_cycles) /
                        out.stats.wall_seconds / 1e6);
    }
    out.host_metrics.merge(g.snapshot());
  }
  if (prof != nullptr) prof->end(phase_track, "collect");
  progress_tick(true);
  return out;
}

}  // namespace issr::driver
