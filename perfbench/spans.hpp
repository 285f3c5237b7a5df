// In-memory span recorder for the benchmark's traced run. The benchmark
// opens a span around each of its own calls into a simulator layer
// (`<layer>.<call>`, e.g. "kernels.build"); spans nest by construction
// order on the single benchmark thread, stay in memory, and are written
// out once at exit as a Chrome trace through the simulator's own
// trace::RingBufferSink / trace::write_chrome_trace (the same exporter
// driver::HostProfiler uses), so one viewer opens every trace the
// project produces.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string, `<layer>.<call>`
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into Spans::all(), -1 = root
  /// Units of work the span covered (simulated cycles, ticks, ...) — the
  /// denominator of the per-layer "ns per unit" metrics.
  std::uint64_t work = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Spans {
 public:
  /// A disabled recorder ignores open/close (the untraced run).
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Open a child of the innermost open span; returns its id (-1 when
  /// disabled).
  int open(const char* name);
  /// Close span `id` (must be the innermost open one), crediting `work`.
  void close(int id, std::uint64_t work = 0);

  const std::vector<Span>& all() const { return spans_; }

  /// Duration minus the time covered by direct children.
  std::int64_t self_ns(int id) const;

  /// Sum of durations over every span called `name`.
  double total_seconds(const char* name) const;
  /// Host nanoseconds per unit of work over spans called `name` (0 when
  /// no work was recorded).
  double ns_per_work(const char* name) const;

  /// Structural check: every span closed, children inside their parent,
  /// self time >= 0. Returns the number of violations.
  std::size_t violations() const;

  /// Write the spans as a Chrome trace (one track, nested B/E slices,
  /// microsecond timestamps). Returns false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(Spans& spans, const char* name) : spans_(spans), id_(spans.open(name)) {}
  ~Scoped() { spans_.close(id_, work_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  void add_work(std::uint64_t w) { work_ += w; }

 private:
  Spans& spans_;
  int id_;
  std::uint64_t work_ = 0;
};

}  // namespace perfbench
