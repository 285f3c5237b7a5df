#include "driver/runs.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/compile.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/spvv.hpp"
#include "sparse/reference.hpp"

namespace issr::driver {

namespace {

/// Exact serialized program identity: tag + field-by-field argument
/// bytes (never a raw struct memcpy — padding bytes are indeterminate).
/// Equal keys imply equal builder output because the kernel builders are
/// pure functions of (variant, args).
class ProgramKey {
 public:
  ProgramKey(const char* kernel, kernels::Variant variant,
             sparse::IndexWidth width) {
    key_ = kernel;
    key_ += '/';
    add(static_cast<std::uint64_t>(variant));
    add(static_cast<std::uint64_t>(width));
  }
  void add(std::uint64_t field) {
    for (unsigned i = 0; i < 8; ++i) {
      key_ += static_cast<char>((field >> (8 * i)) & 0xff);
    }
  }
  const std::string& str() const { return key_; }

 private:
  std::string key_;
};

/// Assemble (or fetch the shared copy of) a single-CC program and load
/// it into `sim`. Its translation is fetched from the same cache under
/// the provenance-qualified key, so workers decode each distinct program
/// once instead of once per rep.
template <typename Build>
void load_program(core::CcSim& sim, const RunAids& aids,
                  const ProgramKey& key, Build&& build) {
  if (aids.programs != nullptr) {
    const auto program = aids.programs->program(key.str(), build);
    sim.set_program(aids.programs->compiled(
        compiled_program_key(key.str()),
        [&] { return core::CompiledProgram(*program); }));
  } else {
    sim.set_program(build());
  }
}

}  // namespace

SpvvRun run_spvv_cc(kernels::Variant variant, sparse::IndexWidth width,
                    const sparse::SparseFiber& a,
                    const sparse::DenseVector& b, trace::TraceSink* trace,
                    bool validate, const RunAids& aids) {
  core::CcSimConfig cfg;
  cfg.arena = aids.arena;
  core::CcSim sim(cfg);
  kernels::SpvvArgs args;
  args.a_vals = sim.stage(a.vals());
  args.a_idcs = sim.stage_indices(a.idcs(), width);
  args.nnz = a.nnz();
  args.b = sim.stage(b);
  args.result = sim.alloc(8);
  args.width = width;
  ProgramKey key("spvv", variant, width);
  key.add(args.a_vals);
  key.add(args.a_idcs);
  key.add(args.nnz);
  key.add(args.b);
  key.add(args.result);
  load_program(sim, aids, key,
               [&] { return kernels::build_spvv(variant, args); });
  if (trace) sim.attach_trace(*trace);

  SpvvRun out;
  out.sim = aids.max_cycles != 0 ? sim.run(aids.max_cycles) : sim.run();
  out.result = sim.read_f64(args.result);
  if (validate && !out.sim.fault) {
    const double want = sparse::ref_spvv(a, b);
    out.ok = std::abs(out.result - want) <= 1e-9 + 1e-9 * std::abs(want);
  }
  return out;
}

CcRun run_csrmv_cc(kernels::Variant variant, sparse::IndexWidth width,
                   const sparse::CsrMatrix& a, const sparse::DenseVector& x,
                   trace::TraceSink* trace, bool validate,
                   const RunAids& aids) {
  core::CcSimConfig cfg;
  cfg.arena = aids.arena;
  core::CcSim sim(cfg);
  kernels::CsrmvArgs args;
  args.ptr = sim.stage_u32(a.ptr());
  args.idcs = sim.stage_indices(a.idcs(), width);
  args.vals = sim.stage(a.vals());
  args.nrows = a.rows();
  args.nnz = a.nnz();
  args.x = sim.stage(x);
  args.y = sim.alloc(8ull * a.rows());
  args.width = width;
  ProgramKey key("csrmv", variant, width);
  key.add(args.ptr);
  key.add(args.idcs);
  key.add(args.vals);
  key.add(args.nrows);
  key.add(args.nnz);
  key.add(args.x);
  key.add(args.y);
  load_program(sim, aids, key,
               [&] { return kernels::build_csrmv(variant, args); });
  if (trace) sim.attach_trace(*trace);

  CcRun out;
  out.sim = aids.max_cycles != 0 ? sim.run(aids.max_cycles) : sim.run();
  out.y = sparse::DenseVector(sim.read_f64s(args.y, a.rows()));
  if (validate && !out.sim.fault) {
    out.ok = sparse::allclose(out.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9);
  }
  return out;
}

SysRun run_csrmv_sys(kernels::Variant variant, sparse::IndexWidth width,
                     unsigned clusters, unsigned cores,
                     const sparse::CsrMatrix& a, const sparse::DenseVector& x,
                     trace::TraceSink* trace, bool validate,
                     const RunAids& aids, const SysTuning& tuning) {
  system::SysCsrmvConfig cfg;
  cfg.variant = variant;
  cfg.width = width;
  cfg.trace_sink = trace;
  cfg.system.arena = aids.arena;
  cfg.system.num_clusters = std::max(1u, clusters);
  cfg.system.fabric = tuning.fabric;
  if (cores != 0) cfg.system.cluster.num_workers = cores;
  cfg.system.noc.link_beats_per_cycle = tuning.noc_links;
  cfg.system.noc.link_latency = tuning.noc_latency;
  cfg.steal = tuning.steal;
  cfg.max_cycles = aids.max_cycles;
  cfg.inject = aids.inject;
  SysRun out;
  out.sys = system::run_csrmv_system(a, x, cfg);
  if (validate && !out.sys.system.fault) {
    out.ok = sparse::allclose(out.sys.y, sparse::ref_csrmv(a, x), 1e-9, 1e-9);
  }
  return out;
}

McRun run_csrmv_mc(kernels::Variant variant, sparse::IndexWidth width,
                   unsigned cores, const sparse::CsrMatrix& a,
                   const sparse::DenseVector& x, trace::TraceSink* trace,
                   bool validate, const RunAids& aids) {
  SysRun r = run_csrmv_sys(variant, width, 1, cores, a, x, trace, validate,
                           aids, SysTuning{.fabric = false});
  return {{std::move(r.sys.system.clusters[0])}, r.ok};
}

}  // namespace issr::driver
