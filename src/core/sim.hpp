// Single-CC simulation harness reproducing the paper's §IV-A setup: one
// core complex coupled to ideal single-cycle instruction memory and a
// two-port ideal data memory (which behaves like the cluster TCDM minus
// bank conflicts and misses). Provides data staging helpers and run-to-
// completion with statistics extraction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "core/cc.hpp"
#include "core/engine.hpp"
#include "isa/program.hpp"
#include "mem/ideal_mem.hpp"
#include "sim/fault.hpp"
#include "sparse/dense.hpp"
#include "sparse/fiber.hpp"

namespace issr::core {

class CompiledProgram;

struct CcSimConfig {
  CcParams cc;
  cycle_t mem_latency = 1;  ///< ideal data memory response latency
  /// Base of the staged-data region (mirrors the cluster TCDM window).
  addr_t data_base = 0x1000'0000;
  /// Skip provably idle cycle stretches in run() (exact: identical
  /// cycles, counters, buckets, and results either way — see
  /// core/engine.hpp). Defaults from the process-wide engine option so
  /// --no-fast-forward reaches every construction site.
  bool fast_forward = engine_fast_forward_default();
  /// When non-null, simulated-memory pages come from this arena instead
  /// of the heap (see common/arena.hpp; purely observational — simulated
  /// behaviour is identical). The arena must outlive the sim and must
  /// not be reset while the sim is alive.
  Arena* arena = nullptr;
};

/// Result of a completed run.
struct CcSimResult {
  cycle_t cycles = 0;
  /// Simulated cycles the engine fast-forwarded instead of ticking
  /// (diagnostic; 0 when fast_forward is off or never engaged).
  cycle_t ff_skipped = 0;
  /// True iff the run ended before the CC went quiescent (cycle budget
  /// exhausted or the no-progress watchdog fired); the counters then
  /// describe a truncated run. `fault` carries the classified reason —
  /// callers that require completion must check one of the two (the
  /// driver turns it into a failed sweep row instead of crashing).
  bool aborted = false;
  /// Why the run did not complete (code kNone when it did), with the
  /// diagnostic snapshot: stuck PC, last engine horizon, stall buckets.
  sim::Fault fault;
  addr_t last_pc = 0;  ///< core PC when the run ended (abort diagnosis)
  SnitchStats core;
  FpssStats fpss;
  ssr::LaneStats ssr_lane;
  ssr::LaneStats issr_lane;
  /// Exact per-cycle attribution: stalls.total() == cycles always holds.
  trace::StallBuckets stalls;

  /// Paper Fig. 4a metric: FPU arithmetic issues per cycle (including
  /// accumulator reductions).
  double fpu_util() const {
    return cycles ? static_cast<double>(fpss.fp_compute) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  /// Reduction-free variant (only FMA-class issues counted).
  double fpu_util_fmadd_only() const {
    return cycles ? static_cast<double>(fpss.fmadd) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
};

class CcSim {
 public:
  explicit CcSim(const CcSimConfig& config = {});

  /// Load a program, translating it for the core (core/compile.hpp).
  /// One of the two must be called before run().
  void set_program(const isa::Program& program);
  /// Load an already-built translation (the driver's asset cache shares
  /// one per program across every rep/run with identical staging).
  void set_program(std::shared_ptr<const CompiledProgram> translation);

  mem::BackingStore& mem() { return memory_->store(); }
  const CcSimConfig& config() const { return config_; }

  // --- Data staging --------------------------------------------------------
  /// Bump-allocate a block in the data region (8-byte aligned by default).
  addr_t alloc(std::size_t bytes, std::size_t align = 8);
  /// Stage a vector of doubles; returns its base address.
  addr_t stage(const std::vector<double>& values);
  addr_t stage(const sparse::DenseVector& v) { return stage(v.vec()); }
  /// Stage an index array packed at the given width (arbitrary alignment
  /// can be forced with `misalign_bytes` to exercise the serializer).
  addr_t stage_indices(const std::vector<std::uint32_t>& idcs,
                       sparse::IndexWidth width, unsigned misalign_bytes = 0);
  /// Stage 32-bit words (row pointers).
  addr_t stage_u32(const std::vector<std::uint32_t>& words);

  /// Read back a staged double / block of doubles.
  double read_f64(addr_t addr) const { return memory_->store().load_f64(addr); }
  std::vector<double> read_f64s(addr_t addr, std::size_t count) const;

  // --- Execution -----------------------------------------------------------
  /// Run until the CC is quiescent. If `max_cycles` elapse first the
  /// result comes back with `aborted` set (and `last_pc` naming the stuck
  /// program counter) instead of looking like a normal finish.
  CcSimResult run(cycle_t max_cycles = 1'000'000'000);

  /// Attach cycle-resolved tracing (must follow set_program; zero overhead
  /// when never called). Tracks register under process name "cc0".
  void attach_trace(trace::TraceSink& sink);

  CoreComplex& cc() { return *cc_; }

 private:
  CcSimConfig config_;
  std::unique_ptr<mem::IdealMemory> memory_;
  std::shared_ptr<const CompiledProgram> program_;
  std::unique_ptr<CoreComplex> cc_;
  addr_t alloc_cursor_;
  /// Sink from attach_trace (null when untraced): run() emits one
  /// instant on a "watchdog" track when a run ends in a Fault.
  trace::TraceSink* trace_sink_ = nullptr;
};

}  // namespace issr::core
