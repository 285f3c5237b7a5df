// Memory request/response protocol between requesters (core LSU, FPU LSU,
// SSR/ISSR data movers, DMA) and timing models (ideal memory, TCDM banks).
//
// Protocol per cycle, in simulator tick order (memory ticks before
// requesters):
//   1. the memory's tick() grants pending requests and matures responses;
//   2. a requester polls pop_response() for matured loads, then pushes at
//      most one new request if can_accept().
// A port holds at most one not-yet-granted request; granted loads mature
// `latency` cycles after acceptance. Stores produce no response.
//
// MemPort is deliberately a concrete final class, not an interface: the
// per-cycle path (every requester polls its port every simulated cycle)
// used to pay a virtual dispatch plus std::optional<MemRsp> construction
// per poll, which dominated the simulator's wall-clock on streaming
// kernels. Both timing models (IdealMemory, Tcdm) own flat vectors of
// these endpoints and drive the memory-side API from their tick();
// requesters see only the requester-side API, fully inlined. Code that
// genuinely needs runtime polymorphism over ports (test scaffolding,
// future backends) wraps the endpoint in MemPortAdapter below — the thin
// virtual seam lives there, off the hot path.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/ring_queue.hpp"
#include "common/types.hpp"
#include "mem/backing_store.hpp"

namespace issr::mem {

struct MemReq {
  addr_t addr = 0;
  bool is_write = false;
  std::uint8_t bytes = 8;  ///< access size: 1, 2, 4 or 8
  std::uint64_t wdata = 0;
  std::uint32_t id = 0;  ///< requester-private tag, echoed in the response
};

struct MemRsp {
  std::uint64_t rdata = 0;
  std::uint32_t id = 0;
};

/// Per-port traffic statistics.
struct PortStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stall_cycles = 0;  ///< cycles a request waited ungranted

  std::uint64_t accesses() const { return reads + writes; }
  bool operator==(const PortStats&) const = default;
};

/// One concrete memory-port endpoint: the requester-side queue pair plus
/// the pending-request slot the owning timing model arbitrates over.
class MemPort final {
 public:
  // --- Requester side ------------------------------------------------------
  /// True iff a request pushed this cycle will be queued (pending slot
  /// free). Under bank conflicts this goes false until the grant.
  bool can_accept() const { return !has_pending_; }

  /// Queue a request. Precondition: can_accept().
  void push_request(const MemReq& req) {
    assert(can_accept());
    pending_ = req;
    has_pending_ = true;
  }

  /// Pop the next matured load response in grant order into `out`.
  /// Returns false (leaving `out` untouched) when none is ready — the
  /// in-place slot replaces the per-poll std::optional<MemRsp> the hot
  /// loops used to construct.
  bool pop_response(MemRsp& out) {
    if (matured_.empty()) return false;
    out = matured_.take_front();
    return true;
  }

  /// Loads granted but not yet delivered (diagnostic/test hook).
  unsigned inflight() const {
    return static_cast<unsigned>(matured_.size() + inflight_.size());
  }

  /// Traffic statistics, observable through the requester-side interface
  /// so the stall accountant can attribute arbitration losses per port.
  const PortStats& stats() const { return stats_; }
  /// Compiled-tier hook: the fused executor's lane bypass serves stream
  /// requests without occupying the port slot and credits the traffic
  /// counters here, at delivery time — exactly when serve_pending would.
  PortStats& mutable_stats() { return stats_; }

  // --- Memory side (driven by the owning IdealMemory / Tcdm) --------------
  bool has_pending() const { return has_pending_; }
  const MemReq& pending() const {
    assert(has_pending_);
    return pending_;
  }

  /// Move in-flight responses whose delay elapsed into the matured queue.
  void mature_until(cycle_t now) {
    while (!inflight_.empty() && inflight_.front().ready_at <= now) {
      matured_.push_back(inflight_.take_front().rsp);
    }
  }

  /// Serve the pending request against `store` and clear the slot. Loads
  /// accepted in this tick (cycle `now`) become poppable `latency - 1`
  /// ticks later: with latency 1 the response pops in the same cycle's
  /// requester phase -> observed next-cycle use, i.e. a 2-cycle load-use
  /// distance including writeback.
  void serve_pending(BackingStore& store, cycle_t now, cycle_t latency) {
    assert(has_pending_);
    const MemReq& req = pending_;
    if (req.is_write) {
      store.store(req.addr, req.wdata, req.bytes);
      ++stats_.writes;
    } else {
      MemRsp rsp;
      rsp.rdata = store.load(req.addr, req.bytes);
      rsp.id = req.id;
      ++stats_.reads;
      if (latency <= 1) {
        matured_.push_back(rsp);
      } else {
        inflight_.push_back({now + latency - 1, rsp});
      }
    }
    has_pending_ = false;
  }

  /// Charge one ungranted-wait cycle (arbitration loss / DMA bank claim).
  void note_stalled() { ++stats_.stall_cycles; }

  /// Watchdog horizon: the earliest cycle at which this port can change
  /// requester-visible state on its own. A pending request or an already
  /// matured response means "right now" (returns 0, which any current
  /// cycle exceeds); otherwise the earliest in-flight maturity;
  /// kCycleNever when fully drained.
  cycle_t next_event() const {
    if (has_pending_ || !matured_.empty()) return 0;
    return inflight_.empty() ? kCycleNever : inflight_.front().ready_at;
  }

 private:
  struct Flight {
    cycle_t ready_at;
    MemRsp rsp;
  };

  MemReq pending_;
  bool has_pending_ = false;
  RingQueue<Flight> inflight_;
  RingQueue<MemRsp> matured_;
  PortStats stats_;
};

/// Thin virtual seam over a MemPort for construction/test code that wants
/// runtime polymorphism (e.g. scripting a port from a mock memory). Never
/// used on the per-cycle simulation path.
class MemPortIface {
 public:
  virtual ~MemPortIface() = default;
  virtual bool can_accept() const = 0;
  virtual void push_request(const MemReq& req) = 0;
  virtual bool pop_response(MemRsp& out) = 0;
  virtual const PortStats& stats() const = 0;
};

class MemPortAdapter final : public MemPortIface {
 public:
  explicit MemPortAdapter(MemPort& port) : port_(&port) {}
  bool can_accept() const override { return port_->can_accept(); }
  void push_request(const MemReq& req) override { port_->push_request(req); }
  bool pop_response(MemRsp& out) override { return port_->pop_response(out); }
  const PortStats& stats() const override { return port_->stats(); }

 private:
  MemPort* port_;
};

}  // namespace issr::mem
