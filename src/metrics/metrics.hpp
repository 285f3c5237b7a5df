// Metrics registry: named counters, gauges, and fixed-bucket histograms
// with deterministic snapshot/merge. This is the observability substrate
// both levels of the stack report through — simulated hardware
// (metrics/harvest.hpp derives utilization/occupancy series from the
// statistics structs every simulation already collects, so recording a
// metric can never perturb simulated timing) and the host sweep engine
// (driver/sweep.cpp counts runs/retries/cache traffic per worker).
//
// Determinism contract:
//  - A Snapshot is a name-sorted list of entries; rendering one is a pure
//    function of its contents.
//  - merge() is associative and commutative per kind: counters and
//    histogram buckets add (exact integer arithmetic), max-gauges take
//    the max, min-gauges the min (a gauge with zero samples is the merge
//    identity). Per-worker snapshots therefore merge to the same result
//    in any grouping/order — asserted by tests/test_metrics.cpp.
//  - Nothing in this module reads clocks or global state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace issr::metrics {

/// Metric kinds. Gauges carry their merge rule in the kind so a merged
/// snapshot never needs out-of-band semantics: kGaugeMax keeps the
/// largest observation (high-water marks, peak utilization), kGaugeMin
/// the smallest (e.g. the least-utilized core of a cluster).
enum class Kind : std::uint8_t { kCounter, kGaugeMax, kGaugeMin, kHistogram };

const char* to_string(Kind k);

/// Shortest round-trip decimal rendering of a double — the fewest
/// significant digits whose strtod recovers the exact value (0.05 emits
/// as "0.05", never "0.050000000000000003"). Shared by every metrics
/// text emitter so identical values always render identically.
std::string fmt_compact(double v);

/// One snapshot entry. Which fields are meaningful depends on `kind`:
/// counters use `count`; gauges use `value` + `samples` (samples == 0 is
/// the merge identity: "never observed"); histograms use
/// `lo`/`hi`/`buckets` (linear bins over [lo, hi), outliers clamped to
/// the edge bins) plus `count` (total records) and `sum`.
struct Entry {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;
  std::uint64_t samples = 0;
  double value = 0.0;
  double sum = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> buckets;
};

/// An immutable-ish, name-sorted set of metric values. Produced by
/// Registry::snapshot() (or built directly by harvest code through a
/// Registry); merged across workers/shards with merge().
class Snapshot {
 public:
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Entry lookup by exact name; null when absent.
  const Entry* find(std::string_view name) const;

  /// Scalar view of an entry: a counter's count, a gauge's value, a
  /// histogram's sum. Absent names read as 0 — callers projecting a
  /// fixed column set over runs that populate different subsets (a
  /// single-CC run has no TCDM) get deterministic zeros.
  double value(std::string_view name) const;

  /// Merge `other` in (see the contract in the header comment). Entries
  /// unknown to *this are copied; shared names must agree on kind and
  /// histogram shape (asserted).
  void merge(const Snapshot& other);

 private:
  friend class Registry;
  std::vector<Entry> entries_;  ///< sorted by name, unique
};

/// A mutable set of metrics. Not thread-safe by design: each worker (or
/// each harvest call) owns a private Registry and the snapshots merge
/// afterwards — the same share-nothing pattern the sweep engine uses for
/// results.
class Registry {
 public:
  /// Find-or-create. Re-lookups must agree on the kind (and histogram
  /// shape); the returned reference is stable for the Registry's life.
  Entry& counter(std::string_view name);
  Entry& gauge_max(std::string_view name);
  Entry& gauge_min(std::string_view name);
  Entry& histogram(std::string_view name, double lo, double hi,
                   std::uint32_t bins);

  /// Convenience recorders.
  void add(std::string_view counter_name, std::uint64_t n);
  void observe_max(std::string_view gauge_name, double v);
  void observe_min(std::string_view gauge_name, double v);
  void record(std::string_view histogram_name, double x);

  /// Name-sorted copy of the current values.
  Snapshot snapshot() const;

 private:
  Entry& get(std::string_view name, Kind kind);
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Record one observation into a gauge entry according to its kind.
void observe(Entry& gauge, double v);

/// Record one sample into a histogram entry (clamps to the edge bins).
void record_sample(Entry& histogram, double x);

}  // namespace issr::metrics
