#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
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
ScenarioResult host_exception_row(const Scenario& s, const char* what) {
  ScenarioResult out;
  out.scenario = s;
  out.ok = false;
  out.fault = sim::make_fault(sim::FaultCode::kHostException, what);
  metrics::Registry reg;
  reg.add(std::string("fault_") + sim::to_string(out.fault.code), 1);
  out.metrics.merge(reg.snapshot());
  return out;
}

/// One schedulable unit: a (scenario, rep) pair with its dispatch cost
/// (estimated for rep 0, measured simulated core-cycles afterwards).
struct Task {
  std::uint32_t index = 0;
  std::uint32_t rep = 0;
  double cost = 0.0;
};

/// A worker's deque. The owner pops its costliest task from the front;
/// idle workers steal from the back. The mutex is uncontended in the
/// common case (tasks are whole simulations, milliseconds each), and the
/// padding keeps adjacent workers' locks off one cache line.
struct alignas(64) WorkerDeque {
  std::mutex mu;
  std::deque<Task> q;
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

  AssetCache cache;
  AssetCache* assets = spec.asset_cache ? &cache : nullptr;

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

  // Shared run telemetry. rep0_print[i] is written exactly once (by the
  // worker that runs rep 0 of scenario i) before any rep > 0 task for i
  // is published; the deque mutex orders that write before the rep
  // task's execution.
  std::vector<std::uint64_t> rep0_print(n, 0);
  std::atomic<std::size_t> remaining{total_tasks};
  // Rep-0 tasks not yet finished: the only publishers of new tasks.
  // Once this hits zero every remaining task is already in a deque (or
  // running on its worker), so an idle worker can exit instead of
  // spinning — exiting early never loses work, because a worker always
  // drains its own deque before leaving and only forfeits the chance to
  // steal from others.
  std::atomic<std::size_t> rep0_left{n};
  std::atomic<std::size_t> steals{0};
  std::atomic<std::size_t> retries_total{0};
  // --fail-fast: raised by the worker that hits the first faulted row;
  // every worker checks it before popping another task. Rows never run
  // are marked `skipped` after the join.
  std::atomic<bool> stop{false};
  // ran[i] is written exactly once, by the worker that executes rep 0 of
  // scenario i (single-writer per index — same argument as rep0_print).
  std::vector<char> ran(n, 0);
  // Parks workers that are waiting for rep tasks to be published (jobs
  // can exceed the scenario count when reps > 1, so some workers start
  // with empty deques). Publishers notify after pushing; the bounded
  // wait covers the notify-before-wait race.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  std::atomic<std::uint64_t> core_cycles{0};
  std::atomic<bool> rep_mismatch{false};

  // Longest-expected-first dispatch: indices sorted by descending cost
  // estimate, dealt round-robin so every deque is itself descending and
  // the heaviest scenarios start immediately on distinct workers.
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
  std::vector<WorkerDeque> deques(workers);
  for (std::size_t i = 0; i < n; ++i) {
    deques[i % workers].q.push_back(Task{order[i], 0, cost[order[i]]});
  }

  // --progress heartbeat state. Percent/ETA come from estimated_cost
  // fractions (the same model the scheduler dispatches by), MCPS from
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
    const std::size_t done =
        total_tasks - remaining.load(std::memory_order_relaxed);
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

  // Per-worker metric registries: share-nothing while the sweep runs
  // (like the staged results), merged into one host snapshot afterwards.
  std::vector<metrics::Registry> regs(workers);

  // Per-worker result staging: workers never touch the shared results
  // vector mid-run (adjacent ScenarioResult slots share cache lines), so
  // there is no false sharing and no cross-worker write traffic until
  // the single move pass after the join.
  std::vector<std::vector<std::pair<std::uint32_t, ScenarioResult>>> staged(
      workers);

  const auto pop_own = [&](unsigned w, Task& t) {
    WorkerDeque& d = deques[w];
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.q.empty()) return false;
    t = d.q.front();
    d.q.pop_front();
    return true;
  };
  // Longest-expected-first applies to stealing too: scan every victim's
  // exposed (back) task and take the costliest. Initial tasks expose
  // their estimate; re-queued reps expose their scenario's measured
  // rep-0 core-cycles, so the refinement steers which straggler an idle
  // worker picks up.
  const auto steal = [&](unsigned w, Task& t) {
    for (;;) {
      int best = -1;
      double best_cost = -1.0;
      for (unsigned k = 1; k < workers; ++k) {
        const unsigned v = (w + k) % workers;
        std::lock_guard<std::mutex> lock(deques[v].mu);
        if (deques[v].q.empty()) continue;
        const double c = deques[v].q.back().cost;
        if (c > best_cost) {
          best_cost = c;
          best = static_cast<int>(v);
        }
      }
      if (best < 0) return false;
      WorkerDeque& d = deques[best];
      std::lock_guard<std::mutex> lock(d.mu);
      if (d.q.empty()) continue;  // raced with its owner; rescan
      t = d.q.back();
      d.q.pop_back();
      return true;
    }
  };

  const auto worker_fn = [&](unsigned w) {
    Arena arena;
    const SweepContext ctx{assets, &arena};
    auto& local = staged[w];
    metrics::Registry& reg = regs[w];
    reg.histogram("host_run_us", 0.0, 1e6, 20);
    const std::uint32_t track = prof != nullptr ? worker_tracks[w] : 0;
    std::uint64_t busy_us = 0;
    for (;;) {
      if (stop.load(std::memory_order_acquire)) break;
      Task t;
      const bool own = pop_own(w, t);
      if (!own) {
        if (!steal(w, t)) {
          // Nothing to pop or steal. Stay only while an unfinished
          // rep-0 task could still publish reps to steal; otherwise
          // exit (the old pool's behavior) rather than burn a core
          // spinning against the last running simulations. Staying
          // workers park on the condition variable instead of
          // spin-scanning every deque mutex.
          if (reps > 1 && !stop.load(std::memory_order_acquire) &&
              rep0_left.load(std::memory_order_acquire) != 0 &&
              remaining.load(std::memory_order_acquire) != 0) {
            std::unique_lock<std::mutex> lock(idle_mu);
            idle_cv.wait_for(lock, std::chrono::milliseconds(1));
            continue;
          }
          break;
        }
        steals.fetch_add(1, std::memory_order_relaxed);
        if (prof != nullptr) prof->instant(track, "steal", t.index);
      }

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
        } catch (const std::exception& e) {
          if (attempt < spec.retries) {
            retries_total.fetch_add(1, std::memory_order_relaxed);
            reg.add("host_retries", 1);
            continue;
          }
          r = host_exception_row(s, e.what());
          break;
        } catch (...) {
          if (attempt < spec.retries) {
            retries_total.fetch_add(1, std::memory_order_relaxed);
            reg.add("host_retries", 1);
            continue;
          }
          r = host_exception_row(s, "unknown host exception");
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
      // Rep-0 wall time lands at the scenario's index: exactly one task
      // writes each slot, so no lock is needed (same argument as
      // rep0_print above).
      if (t.rep == 0) out.run_seconds[t.index] = run_us * 1e-6;
      core_cycles.fetch_add(r.core_cycles, std::memory_order_relaxed);

      const bool faulted = static_cast<bool>(r.fault);
      if (t.rep == 0) {
        ran[t.index] = 1;
        rep0_print[t.index] = result_fingerprint(r);
        if (reps > 1) {
          // Publish the remaining reps with their now-measured cost,
          // onto our own front: the owner runs them next while the
          // workload is hot, and idle workers can still steal them.
          {
            std::lock_guard<std::mutex> lock(deques[w].mu);
            for (unsigned rep = reps - 1; rep >= 1; --rep) {
              deques[w].q.push_front(
                  Task{t.index, rep, static_cast<double>(r.core_cycles)});
            }
          }
          idle_cv.notify_all();
        }
        local.emplace_back(t.index, std::move(r));
        rep0_left.fetch_sub(1, std::memory_order_acq_rel);
      } else {
        // Rep determinism: every rep of a scenario must reproduce rep 0
        // exactly (the engine guarantees it; a mismatch means a
        // modelling bug and poisons the sweep).
        if (result_fingerprint(r) != rep0_print[t.index]) {
          ISSR_ERROR("rep %u of %s diverged from rep 0", t.rep,
                     s.name().c_str());
          rep_mismatch.store(true, std::memory_order_relaxed);
        }
      }
      remaining.fetch_sub(1, std::memory_order_acq_rel);
      done_cost.fetch_add(static_cast<std::uint64_t>(cost[t.index]),
                          std::memory_order_relaxed);
      if (spec.fail_fast && faulted) {
        stop.store(true, std::memory_order_release);
        idle_cv.notify_all();
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

  for (auto& local : staged) {
    for (auto& [index, result] : local) {
      out.results[index] = std::move(result);
    }
  }
  // Rows the --fail-fast stop preempted: keep their scenario identity so
  // the report still has one row per requested scenario, marked skipped.
  for (std::size_t i = 0; i < n; ++i) {
    if (!ran[i]) {
      out.results[i].scenario = spec.scenarios[i];
      out.results[i].skipped = true;
    }
  }
  assert(!rep_mismatch.load() && "rep produced a different result");
  if (rep_mismatch.load()) {
    for (auto& r : out.results) r.ok = false;
  }

  out.stats.runs = total_tasks;
  out.stats.steals = steals.load();
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
  if (assets != nullptr) out.stats.cache = assets->stats();

  // Host metrics: merge the per-worker registries (any merge order gives
  // the same snapshot — the contract tests/test_metrics.cpp asserts),
  // then fold in the sweep-global aggregates.
  for (const auto& reg : regs) out.host_metrics.merge(reg.snapshot());
  {
    metrics::Registry g;
    g.add("host_steals", out.stats.steals);
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
