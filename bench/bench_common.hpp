// Shared helpers for the figure/table reproduction benches. The staging
// and validation logic lives in the simulator library (driver/runs.hpp)
// so benches, the issr_run experiment driver, and tests share one
// implementation; these thin wrappers keep the bench call sites terse and
// abort on validation mismatch (benches double as integration checks).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/version.hpp"
#include "core/sim.hpp"
#include "driver/runs.hpp"
#include "kernels/csrmm.hpp"
#include "kernels/csrmv.hpp"
#include "kernels/spvv.hpp"
#include "sparse/generate.hpp"
#include "sparse/reference.hpp"
#include "sparse/suite.hpp"

namespace issr::bench {

/// Set by parse_args(--full); ISSR_BENCH_FULL=1 is the env equivalent.
inline bool g_full_forced = false;

/// True when the full (large) workload set is requested; default runs a
/// representative subset so `for b in build/bench/*; do $b; done` stays
/// fast. Request the complete paper suite with --full or ISSR_BENCH_FULL=1.
inline bool full_run() {
  if (g_full_forced) return true;
  const char* v = std::getenv("ISSR_BENCH_FULL");
  return v != nullptr && v[0] == '1';
}

/// Tree identity for perfbench's `machine:` line. One implementation
/// with the results-JSON provenance header (common/version.hpp):
/// ISSR_GIT_DESCRIBE overrides, then `git describe`, then "unknown".
inline std::string git_describe() { return issr::engine_version(); }

/// Shared bench command line (the one flag dispatch for every figure/table
/// binary): --full selects the complete paper sweep, --help describes the
/// bench. Call first thing in main.
inline void parse_args(int argc, char** argv, const char* what) {
  const std::string prog =
      argc > 0 && argv[0] != nullptr ? argv[0] : "bench";
  std::string usage = prog + " — " + what +
                      "\n\nOptions:\n"
                      "  --full    run the complete paper sweep (default: a "
                      "fast representative subset;\n"
                      "            ISSR_BENCH_FULL=1 is equivalent)\n"
                      "  --help    this text\n";
  cli::FlagParser parser(prog, usage);
  parser.add_switch("--full", [] { g_full_forced = true; });
  parser.parse(argc, argv);
}

using CcRun = driver::CcRun;

/// Run single-CC SpVV; returns the simulation result (validated).
inline core::CcSimResult run_spvv_cc(kernels::Variant variant,
                                     sparse::IndexWidth width,
                                     const sparse::SparseFiber& a,
                                     const sparse::DenseVector& b) {
  auto r = driver::run_spvv_cc(variant, width, a, b);
  if (!r.ok) {
    std::fprintf(stderr, "FATAL: SpVV result mismatch\n");
    std::abort();
  }
  return r.sim;
}

/// Run single-CC CsrMV over a full matrix; validates against the golden
/// reference (aborts on mismatch — benches double as integration checks).
inline CcRun run_csrmv_cc(kernels::Variant variant, sparse::IndexWidth width,
                          const sparse::CsrMatrix& a,
                          const sparse::DenseVector& x) {
  auto r = driver::run_csrmv_cc(variant, width, a, x);
  if (!r.ok) {
    std::fprintf(stderr, "FATAL: CsrMV result mismatch\n");
    std::abort();
  }
  return r;
}

/// Run multicore CsrMV on the simulated cluster (validated).
inline cluster::McCsrmvResult run_csrmv_mc(kernels::Variant variant,
                                           sparse::IndexWidth width,
                                           unsigned cores,
                                           const sparse::CsrMatrix& a,
                                           const sparse::DenseVector& x) {
  auto r = driver::run_csrmv_mc(variant, width, cores, a, x);
  if (!r.ok) {
    std::fprintf(stderr, "FATAL: multicore CsrMV result mismatch\n");
    std::abort();
  }
  return std::move(r.mc);
}

}  // namespace issr::bench
