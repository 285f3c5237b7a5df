// Host-side sweep profiler: a thread-safe recording facade over the
// simulator's own trace subsystem (trace/ring.hpp + trace/chrome.hpp),
// pointed at wall-clock time instead of simulated cycles. The sweep
// engine records one timeline track per worker (run slices named by
// scenario) plus a phases track, and --profile-host
// writes the result as a Chrome trace — the exact exporter and format
// the simulated-hardware traces already use, so one viewer opens both.
//
// Two impedance mismatches with the simulation-side Tracer are handled
// here rather than leaked into sweep.cpp:
//  - trace::Event.name must have static lifetime (sinks store the
//    pointer). Host-side names are runtime strings (scenario names), so
//    the profiler interns them into pointer-stable storage.
//  - The simulation records single-threaded per sink; sweep workers
//    share this one. A mutex serializes record/intern — host profiling
//    is opt-in observability on a path that runs whole simulations per
//    event, so the lock is noise, and it never touches simulated state
//    (result files are bytewise identical with profiling on or off).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "trace/ring.hpp"

namespace issr::driver {

class HostProfiler {
 public:
  /// `capacity` bounds retained events (flight-recorder semantics, like
  /// the simulation sinks). The epoch for now_us() is construction time.
  explicit HostProfiler(std::size_t capacity = std::size_t{1} << 16);

  /// Register a timeline track (e.g. ("sweep", "worker 3")).
  std::uint32_t add_track(const std::string& process,
                          const std::string& track);

  /// Microseconds since construction (the trace's timestamp unit).
  std::uint64_t now_us() const;

  /// Record a slice open/close at now_us() on `track`. `name` may be
  /// any runtime string; it is interned (deduplicated, pointer-stable)
  /// internally.
  void begin(std::uint32_t track, const std::string& name);
  void end(std::uint32_t track, const std::string& name);

  /// Events recorded so far (including any lost to ring wrap).
  std::uint64_t recorded() const;

  /// Write the collected timeline as a Chrome trace document; returns
  /// false on I/O failure.
  bool write(const std::string& path) const;

 private:
  const char* intern(const std::string& name);  // callers hold mu_
  void record(std::uint32_t track, trace::Phase phase,
              const std::string& name);

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  trace::RingBufferSink sink_;
  /// Interned name storage. std::deque never relocates elements, so the
  /// c_str() pointers stored in events stay valid for the profiler's
  /// lifetime; the map deduplicates so each distinct name is stored once.
  std::deque<std::string> names_;
  std::map<std::string, const char*, std::less<>> interned_;
};

}  // namespace issr::driver
