#include "spans.hpp"

#include <cstring>

#include "trace/chrome.hpp"
#include "trace/ring.hpp"

namespace perfbench {

int Spans::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id, std::uint64_t work) {
  if (!enabled_ || id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  s.work += work;
  // A mismatched close leaves the stack alone; violations() reports the
  // span that is still open.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::int64_t Spans::self_ns(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  std::int64_t self = s.duration_ns();
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == id) self -= spans_[i].duration_ns();
  }
  return self;
}

double Spans::total_seconds(const char* name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.duration_ns();
  }
  return static_cast<double>(ns) * 1e-9;
}

double Spans::ns_per_work(const char* name) const {
  std::uint64_t w = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) w += s.work;
  }
  return w == 0 ? 0.0 : total_seconds(name) * 1e9 / static_cast<double>(w);
}

std::size_t Spans::violations() const {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      ++bad;
      continue;
    }
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) ++bad;
    }
    if (self_ns(static_cast<int>(i)) < 0) ++bad;
  }
  return bad;
}

bool Spans::write_chrome(const std::string& path) const {
  issr::trace::RingBufferSink sink(2 * spans_.size() + 1);
  const std::uint32_t track = sink.add_track("perfbench", "benchmark thread");
  const auto us = [](std::int64_t ns) {
    return static_cast<issr::cycle_t>(ns / 1000);
  };
  // Spans are stored parent-before-child in open order, so a depth-first
  // walk emits properly nested B/E pairs with non-decreasing timestamps.
  std::vector<std::vector<int>> children(spans_.size());
  std::vector<int> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    (p < 0 ? roots : children[static_cast<std::size_t>(p)])
        .push_back(static_cast<int>(i));
  }
  const auto emit = [&](const auto& self, int id) -> void {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    sink.record({us(s.start_ns), track, issr::trace::Phase::kBegin, s.name,
                 s.work});
    for (const int c : children[static_cast<std::size_t>(id)]) self(self, c);
    sink.record({us(s.end_ns), track, issr::trace::Phase::kEnd, s.name, 0});
  };
  for (const int r : roots) emit(emit, r);
  return issr::trace::write_chrome_trace(path, sink);
}

}  // namespace perfbench
