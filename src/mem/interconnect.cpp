#include "mem/interconnect.hpp"

#include <cassert>

namespace issr::mem {

void Interconnect::begin_cycle(cycle_t now) {
  // Budgets are per-cycle: the System begins every cycle, in order, before
  // it ticks any cluster. The monotonicity assert is the cheap canary for
  // an ordering bug there.
  assert(now >= last_begin_ && "interconnect cycles must begin in order");
  last_begin_ = now;
  for (auto& link : links_) {
    link.in_left = config_.link_beats_per_cycle;
    link.out_left = config_.link_beats_per_cycle;
  }
  for (auto& g : groups_) {
    g.in_left = config_.group_beats_per_cycle;
    g.out_left = config_.group_beats_per_cycle;
  }
}

bool Interconnect::try_beat(unsigned cluster, Dir dir, addr_t addr,
                            cycle_t now) {
  if (unlimited_) return true;
  Link& link = links_[cluster];
  LinkStats& st = stats_[cluster];
  unsigned& link_left = dir == Dir::kIngress ? link.in_left : link.out_left;
  if (config_.link_beats_per_cycle != 0 && link_left == 0) {
    deny(link, st, dir, now);
    return false;
  }
  if (config_.group_beats_per_cycle != 0 && config_.bank_groups != 0) {
    Group& group = groups_[group_of(addr)];
    unsigned& group_left =
        dir == Dir::kIngress ? group.in_left : group.out_left;
    if (group_left == 0) {
      ++group_conflicts_;
      deny(link, st, dir, now);
      return false;
    }
    --group_left;
  }
  if (config_.link_beats_per_cycle != 0) --link_left;
  if (dir == Dir::kIngress) {
    ++st.beats_in;
  } else {
    ++st.beats_out;
  }
  return true;
}

bool Interconnect::try_link_beat(unsigned cluster, Dir dir, cycle_t now) {
  if (unlimited_) return true;
  Link& link = links_[cluster];
  LinkStats& st = stats_[cluster];
  unsigned& link_left = dir == Dir::kIngress ? link.in_left : link.out_left;
  if (config_.link_beats_per_cycle != 0 && link_left == 0) {
    deny(link, st, dir, now);
    return false;
  }
  if (config_.link_beats_per_cycle != 0) --link_left;
  if (dir == Dir::kIngress) {
    ++st.beats_in;
  } else {
    ++st.beats_out;
  }
  return true;
}

void Interconnect::deny(Link& link, LinkStats& st, Dir dir, cycle_t now) {
  if (dir == Dir::kIngress) {
    ++st.denied_in;
  } else {
    ++st.denied_out;
  }
  // Slice closing is driven by the event stream itself (the next denial
  // after a quiet gap, or close_trace), never by the begin_cycle cadence.
  if (link.slice_open && link.last_denied + 1 < now) {
    link.trace.end(link.last_denied + 1, "contention");
    link.slice_open = false;
  }
  if (!link.slice_open) {
    link.trace.begin(now, "contention");
    link.slice_open = true;
  }
  link.last_denied = now;
}

void Interconnect::attach_trace(trace::TraceSink& sink,
                                const std::string& prefix) {
  for (unsigned c = 0; c < links_.size(); ++c) {
    links_[c].trace.attach(
        sink, sink.add_track(prefix + "noc", "link" + std::to_string(c)));
  }
}

void Interconnect::close_trace() {
  for (auto& link : links_) {
    if (link.slice_open) {
      link.trace.end(link.last_denied + 1, "contention");
      link.slice_open = false;
    }
  }
}

}  // namespace issr::mem
