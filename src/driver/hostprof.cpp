#include "driver/hostprof.hpp"

#include "trace/chrome.hpp"

namespace issr::driver {

HostProfiler::HostProfiler(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()), sink_(capacity) {}

std::uint32_t HostProfiler::add_track(const std::string& process,
                                      const std::string& track) {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_.add_track(process, track);
}

std::uint64_t HostProfiler::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

const char* HostProfiler::intern(const std::string& name) {
  const auto it = interned_.find(name);
  if (it != interned_.end()) return it->second;
  names_.push_back(name);
  const char* p = names_.back().c_str();
  interned_.emplace(name, p);
  return p;
}

void HostProfiler::record(std::uint32_t track, trace::Phase phase,
                          const std::string& name) {
  const std::uint64_t ts = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  sink_.record({ts, track, phase, intern(name), 0});
}

void HostProfiler::begin(std::uint32_t track, const std::string& name) {
  record(track, trace::Phase::kBegin, name);
}

void HostProfiler::end(std::uint32_t track, const std::string& name) {
  record(track, trace::Phase::kEnd, name);
}

std::uint64_t HostProfiler::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sink_.recorded();
}

bool HostProfiler::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace::write_chrome_trace(path, sink_);
}

}  // namespace issr::driver
