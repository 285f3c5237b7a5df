// The benchmark's three workloads. Each is generated in-process from the
// seed and driven only through the library's public entry points
// (driver::run_sweep, driver::run_*, system::run_csrmm_system, the
// kernel builders and core::CompiledProgram). perfbench/README.md records
// why each workload exists, which layers it loads and which it bypasses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "spans.hpp"
#include "trace/stall.hpp"

namespace perfbench {

/// Simulated-side record of one run, for the core-cycle-weighted
/// per-layer metrics.
struct SimSample {
  std::uint64_t core_cycles = 0;
  issr::trace::StallBuckets stalls;
  issr::metrics::Snapshot metrics;
};

/// One pass over the whole workload.
struct Pass {
  double wall_s = 0.0;
  std::uint64_t core_cycles = 0;  ///< check value and the MCPS numerator
  std::uint64_t fingerprint = 0;  ///< check value: FNV-1a of the results
  std::uint64_t runs = 0;         ///< simulations attempted
  std::uint64_t failures = 0;     ///< mismatches + faulted/skipped rows
  std::vector<SimSample> samples;
  /// Sweep-engine telemetry of the pass (zeros where no sweep ran).
  double idle_frac = 0.0;
  std::uint64_t steals = 0;
  std::size_t workload_hits = 0, workload_lookups = 0;
  std::size_t program_hits = 0, program_lookups = 0;
  std::size_t compiled_hits = 0, compiled_lookups = 0;

  double mcps() const {
    return wall_s > 0 ? static_cast<double>(core_cycles) / wall_s / 1e6 : 0.0;
  }
};

/// Per-layer values a layer pass measures besides its span times (keyed
/// by metric name, e.g. "core.ff_skip_frac").
using Values = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up: everything the simulations need before the first
  /// cycle (operand generation, program assembly, compiled translation),
  /// built from scratch with no cache.
  virtual void setup(Spans& spans) const = 0;

  /// One full pass through the public entry point the workload models.
  virtual Pass pass(Spans& spans) const = 0;

  /// Largest |model - paper| / paper over the anchors the workload
  /// covers, from a completed pass. Simulations run only for the anchors
  /// are counted in `anchor_runs` (runs and failures).
  virtual double paper_err(const Pass& pass, Pass& anchor_runs) const = 0;

  /// Traced layer pass: call each layer directly, one span per call
  /// (work = core-cycles). The result's core_cycles must equal a pass's;
  /// only its runs, failures and core_cycles are filled.
  virtual Pass layers(Spans& spans, Values& values) const = 0;
};

/// `name` is cc_paper, cluster_fig4c or system_x8 (nullptr otherwise);
/// `small` shrinks every input for the self-check.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small);

/// 64-bit FNV-1a, chainable through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench
