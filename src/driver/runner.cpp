#include "driver/runner.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "common/log.hpp"
#include "driver/assets.hpp"
#include "driver/runs.hpp"
#include "metrics/harvest.hpp"
#include "trace/chrome.hpp"
#include "trace/ring.hpp"

namespace issr::driver {

std::string trace_file_path(const std::string& trace_dir, const Scenario& s) {
  std::string name = s.name();
  for (auto& c : name) {
    if (c == '/') c = '_';
  }
  return trace_dir + "/" + name + ".trace.json";
}

const char* row_status(const ScenarioResult& r) {
  if (r.skipped) return "skipped";
  if (r.fault) return "fault";
  return r.ok ? "ok" : "mismatch";
}

namespace {

/// Mark the row failed with `fault` and record the machine-readable
/// fault_<code> counter metric (only faulted rows carry it, so clean
/// sweeps' metric files are byte-identical to pre-fault output).
void apply_fault(ScenarioResult& out, sim::Fault fault) {
  if (!fault) return;
  out.ok = false;
  metrics::Registry reg;
  reg.add(std::string("fault_") + sim::to_string(fault.code), 1);
  out.metrics.merge(reg.snapshot());
  out.fault = std::move(fault);
}

/// Derive the simulator-level injection switches for this scenario from
/// the plan. barrier-drop wedges the inter-cluster barrier on system
/// runs and the cluster HW barrier otherwise; dma-stall only bites
/// shapes that use a DMA (cluster/system runs).
sim::InjectSet derive_inject(const sim::FaultPlan* plan,
                             const std::string& name, unsigned clusters,
                             unsigned cores) {
  sim::InjectSet set;
  if (plan == nullptr) return set;
  if (plan->applies(sim::InjectKind::kBarrierDrop, name)) {
    if (clusters > 1) {
      set.drop_sys_barrier = true;
    } else {
      set.drop_cluster_barrier = true;
    }
  }
  if (plan->applies(sim::InjectKind::kDmaStall, name) &&
      (clusters > 1 || cores > 1)) {
    set.stall_dma = true;
  }
  return set;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& s, const RunOptions& opts,
                            const SweepContext& ctx) {
  // The sink is created only when a trace is requested; a null sink means
  // every instrumentation hook is a single skipped null check, so traced
  // and untraced sweeps produce identical simulation results.
  std::unique_ptr<trace::RingBufferSink> sink;
  if (!opts.trace_dir.empty()) {
    sink = std::make_unique<trace::RingBufferSink>(opts.trace_events);
  }

  ScenarioResult out;
  out.scenario = s;

  const std::string name = s.name();
  // `fault` injections mark the row failed without running anything —
  // the cheapest way for tests/CI to exercise the failed-row reporting
  // and exit-code paths.
  if (opts.inject != nullptr &&
      opts.inject->applies(sim::InjectKind::kFault, name)) {
    apply_fault(out, sim::make_fault(sim::FaultCode::kInjected,
                                     "injected fault marker (--inject)"));
    return out;
  }

  // The workload is a pure function of its key, so the shared cached
  // copy and a locally built one are identical objects; the cache just
  // builds each distinct key once per sweep instead of once per run.
  std::shared_ptr<const Workload> shared;
  Workload local;
  const Workload* wl;
  if (ctx.assets != nullptr) {
    shared = ctx.assets->workload(s);
    wl = shared.get();
  } else {
    local = build_workload(workload_key(s));
    wl = &local;
  }
  RunAids aids;
  aids.arena = ctx.arena;
  aids.programs = ctx.assets;
  aids.max_cycles = opts.max_cycles;

  if (s.kernel == Kernel::kSpvv) {
    // expand() never emits these, but a hand-built Scenario could:
    // SpVV has no multicore kernel and no matrix structure, so record
    // what actually runs (one core complex, a uniform random vector) —
    // the results row must describe the executed workload. Density is
    // meaningful (it sets the vector's nonzero count) and is kept.
    out.scenario.cores = 1;
    out.scenario.clusters = 1;
    out.scenario.family = sparse::MatrixFamily::kUniform;
    const auto& a = *wl->spvv_a;
    const auto r = run_spvv_cc(s.variant, s.width, a, *wl->dense,
                               sink.get(), /*validate=*/true, aids);
    out.ok = r.ok;
    out.rows = 1;
    out.cols = s.cols;
    out.nnz = a.nnz();
    out.cycles = r.sim.cycles;
    out.fpu_util = r.sim.fpu_util();
    out.macs = r.sim.fpss.fmadd + r.sim.fpss.fmul;
    out.core_cycles = r.sim.cycles;
    out.stalls = r.sim.stalls;
    out.metrics = metrics::harvest_cc(r.sim);
    apply_fault(out, r.sim.fault);
  } else {
    // Hand-built-scenario normalization (expand() never emits these):
    // kDiagonal has no driver generator (the workload builder falls back
    // to uniform) and cores = 0 would mean "cluster default" to
    // run_csrmv_sys but runs single-CC here — record what executes.
    if (s.family == sparse::MatrixFamily::kDiagonal) {
      out.scenario.family = sparse::MatrixFamily::kUniform;
    }
    const unsigned cores = std::max(1u, s.cores);
    const unsigned clusters = std::max(1u, s.clusters);
    out.scenario.cores = cores;
    out.scenario.clusters = clusters;
    const auto& a = *wl->csrmv_a;
    const auto& x = *wl->dense;
    out.rows = a.rows();
    out.cols = a.cols();
    out.nnz = a.nnz();

    // Structural input validation: malformed CSR arrays become an
    // invalid_input fault row instead of tripping kernel-builder asserts
    // deep in the stack. A `corrupt` injection damages *copies* of the
    // raw arrays (the shared cached workload is immutable) and runs them
    // through the same checker, proving the rejection path end to end.
    {
      std::string err;
      if (opts.inject != nullptr &&
          opts.inject->applies(sim::InjectKind::kCorrupt, name)) {
        std::vector<std::uint32_t> bad_ptr = a.ptr();
        std::vector<std::uint32_t> bad_idcs = a.idcs();
        if (!bad_idcs.empty()) {
          bad_idcs.front() = a.cols();  // column index out of bounds
        } else {
          bad_ptr.back() += 1;  // ptr[rows] disagrees with the value count
        }
        if (!sparse::validate_csr(a.rows(), a.cols(), bad_ptr, bad_idcs,
                                  a.vals(), err)) {
          apply_fault(out, sim::make_fault(
                               sim::FaultCode::kInvalidInput,
                               "corrupted workload rejected: " + err));
          return out;
        }
      }
      if (!sparse::validate_csr(a.rows(), a.cols(), a.ptr(), a.idcs(),
                                a.vals(), err)) {
        apply_fault(out, sim::make_fault(sim::FaultCode::kInvalidInput,
                                         "malformed CSR workload: " + err));
        return out;
      }
    }
    aids.inject = derive_inject(opts.inject, name, clusters, cores);

    if (clusters > 1 || cores > 1) {
      // The System model: `clusters` clusters of `cores` workers around
      // the shared main memory. One cluster runs without a fabric, as
      // the paper's standalone cluster.
      SysTuning tuning{s.noc_links, s.noc_latency, s.steal};
      tuning.fabric = clusters > 1;
      const auto r = run_csrmv_sys(s.variant, s.width, clusters, cores, a, x,
                                   sink.get(), /*validate=*/true, aids,
                                   tuning);
      out.ok = r.ok;
      out.cycles = r.sys.system.cycles;
      out.fpu_util = r.sys.system.fpu_util();
      out.macs = r.sys.system.total_macs();
      out.core_cycles = r.sys.system.core_cycles();
      out.stalls = r.sys.system.total_stalls();
      out.metrics = metrics::harvest_system(
          r.sys.system, r.sys.steal ? &r.sys.queue : nullptr);
      apply_fault(out, r.sys.system.fault);
    } else {
      const auto r = run_csrmv_cc(s.variant, s.width, a, x, sink.get(),
                                  /*validate=*/true, aids);
      out.ok = r.ok;
      out.cycles = r.sim.cycles;
      out.fpu_util = r.sim.fpu_util();
      out.macs = r.sim.fpss.fmadd + r.sim.fpss.fmul;
      out.core_cycles = r.sim.cycles;
      out.stalls = r.sim.stalls;
      out.metrics = metrics::harvest_cc(r.sim);
      apply_fault(out, r.sim.fault);
    }
  }
  out.macs_per_cycle = out.cycles ? static_cast<double>(out.macs) /
                                        static_cast<double>(out.cycles)
                                  : 0.0;

  // The attribution invariant the subsystem promises: the exclusive
  // buckets decompose every simulated core-cycle exactly.
  assert(out.stalls.total() == out.core_cycles &&
         "stall buckets must sum to the simulated core-cycles");
  if (out.stalls.total() != out.core_cycles) out.ok = false;

  // The utilization invariant the metrics layer promises: every
  // util_*/_frac/_rate gauge lies in [0, 1]. Same poisoning policy as
  // the stall-sum invariant above.
  if (!metrics::utilization_in_bounds(out.metrics)) out.ok = false;

  if (sink) {
    const std::string path = trace_file_path(opts.trace_dir, out.scenario);
    if (!trace::write_chrome_trace(path, *sink)) {
      ISSR_ERROR("failed to write trace file %s", path.c_str());
      out.trace_write_failed = true;
    }
  }
  return out;
}

}  // namespace issr::driver
