// Content-addressed scenario asset cache: the immutable inputs a sweep
// rebuilds over and over — generated sparse matrices, dense operands, and
// assembled kernel Programs — built exactly once per distinct key and
// shared (`shared_ptr<const ...>`) across all workers and reps.
//
// Workloads are keyed by the parameters that feed their generators
// (kernel, family, seed, shape, nnz/row); assembled programs are keyed by
// (kernel, variant, width, staged-argument block). Both are pure
// functions of their key, so sharing is exact: a sweep's result files
// are bytewise identical to running each scenario alone through
// run_scenario() with no cache (tests/test_sweep_engine.cpp).
//
// Thread safety: get-or-build runs under a per-key once-flag, so
// concurrent workers requesting the same key build it once and everyone
// else blocks only on that key, never on unrelated builds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "driver/scenario.hpp"
#include "isa/program.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/fiber.hpp"

namespace issr::core {
class CompiledProgram;
}

namespace issr::driver {

/// Workload identity: exactly the inputs the generators consume. Two
/// scenarios that differ only in comparison axes (variant, width, cores)
/// share a key — that is the sweep design (identical operands make their
/// cycle counts comparable) and the cache's main hit source.
struct WorkloadKey {
  Kernel kernel = Kernel::kCsrmv;
  sparse::MatrixFamily family = sparse::MatrixFamily::kUniform;
  std::uint64_t seed = 0;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint32_t row_nnz = 0;

  bool operator==(const WorkloadKey&) const = default;
};

/// The key `s` maps to, with the same normalizations run_scenario applies
/// before generating (SpVV pins family/rows; kDiagonal generates as
/// uniform).
WorkloadKey workload_key(const Scenario& s);

/// One materialized workload (immutable once built). SpVV fills
/// {spvv_a, dense}; CsrMV fills {csrmv_a, dense}.
struct Workload {
  std::shared_ptr<const sparse::SparseFiber> spvv_a;
  std::shared_ptr<const sparse::CsrMatrix> csrmv_a;
  /// The dense operand (SpVV's b / CsrMV's x), generated after the
  /// sparse structure from the same seeded RNG — the exact sequence
  /// run_scenario has always used.
  std::shared_ptr<const sparse::DenseVector> dense;
};

/// Build the workload for `key` from scratch (the cache's builder; also
/// what run_scenario() does when called without a cache).
Workload build_workload(const WorkloadKey& key);

/// Cache hit/miss counters. Increments and stats() reads all happen
/// under the cache mutex, so a snapshot is exact at the moment it is
/// taken (tests rely on post-join counts matching unique-key math).
struct AssetCacheStats {
  std::size_t workload_builds = 0;
  std::size_t workload_hits = 0;
  std::size_t program_builds = 0;
  std::size_t program_hits = 0;
  std::size_t compiled_builds = 0;
  std::size_t compiled_hits = 0;
};

/// Qualify a Program cache key for the compiled-translation cache
/// (schema "compiled.v5"). A CompiledProgram is a pure function of the
/// Program *and* of the translator build that produced it, so the key
/// prepends the engine provenance fields (source revision, build type,
/// LTO): a result cache that outlives a binary can never serve a
/// translation from a different translator. Runtime knobs stay out for
/// the same reason they stay out of the results header — byte-diff CI
/// runs the same matrix under every flag combination.
std::string compiled_program_key(const std::string& program_key);

class AssetCache {
 public:
  /// Get-or-build the workload for `s`. Returned assets are immutable
  /// and pointer-identical for equal keys.
  std::shared_ptr<const Workload> workload(const Scenario& s);

  /// Get-or-build an assembled program. `key` must uniquely serialize
  /// (kernel, variant, width, argument block) — see program_key() in
  /// driver/runs.cpp; `build` runs at most once per key.
  std::shared_ptr<const isa::Program> program(
      const std::string& key, const std::function<isa::Program()>& build);

  /// Get-or-build a compiled translation (core/compile.hpp). `key` must
  /// come from compiled_program_key() so translations are shared exactly
  /// as widely as the Programs they decode — and never across engine
  /// builds.
  std::shared_ptr<const core::CompiledProgram> compiled(
      const std::string& key,
      const std::function<core::CompiledProgram()>& build);

  AssetCacheStats stats() const;

 private:
  template <typename V>
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const V> value;
  };

  struct KeyHash {
    std::size_t operator()(const WorkloadKey& k) const;
  };

  mutable std::mutex mu_;
  std::unordered_map<WorkloadKey, std::shared_ptr<Slot<Workload>>, KeyHash>
      workloads_;
  std::unordered_map<std::string, std::shared_ptr<Slot<isa::Program>>>
      programs_;
  std::unordered_map<std::string,
                     std::shared_ptr<Slot<core::CompiledProgram>>>
      compiled_;
  AssetCacheStats stats_;
};

}  // namespace issr::driver
