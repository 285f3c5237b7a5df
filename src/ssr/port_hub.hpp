// Request multiplexing of several client engines onto one memory port,
// with response routing by request tag. Used for the paper's core-complex
// memory topology (§II-C): the core LSU, FP LSU, and SSR data mover share
// one TCDM port (clients are served in tick order, giving the core
// priority for its sporadic requests), while the ISSR owns the second
// port exclusively (its internal index/data round-robin lives in the
// lane, §II-B). Every method is non-virtual and inline: the hub is on the
// per-cycle path of every requester.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/ring_queue.hpp"
#include "mem/port.hpp"

namespace issr::ssr {

class PortHub;

/// A client's handle onto the shared port.
class PortClient {
 public:
  PortClient() = default;

  /// True iff the underlying port can take a request right now (it may
  /// already have been claimed by an earlier-ticking client this cycle).
  bool can_request() const;

  /// Issue a request; `tag` is private to this client and echoed back.
  void request(mem::MemReq req, std::uint32_t tag = 0);

  /// Pop the next response destined for this client into `out`; returns
  /// false when none is queued.
  bool pop_response(mem::MemRsp& out);

  bool valid() const { return hub_ != nullptr; }

 private:
  friend class PortHub;
  PortHub* hub_ = nullptr;
  unsigned id_ = 0;
};

class PortHub {
 public:
  explicit PortHub(mem::MemPort& port) : port_(&port) {}

  /// Register a client; at most 16 per hub (4-bit route tag).
  PortClient add_client();

  /// Route matured responses to per-client queues. Tick after the memory
  /// and before any client.
  void tick();

  mem::MemPort& port() { return *port_; }
  const mem::MemPort& port() const { return *port_; }

  /// Routed responses not yet popped by their client (watchdog horizon:
  /// nonzero means a client will act next tick).
  bool has_queued() const { return queued_ != 0; }

  /// Response-id split: the top bits carry the client route, the low
  /// kTagBits the client-private tag.
  static constexpr unsigned kTagBits = 28;

 private:
  friend class PortClient;

  mem::MemPort* port_;
  std::vector<RingQueue<mem::MemRsp>> queues_;
  std::size_t queued_ = 0;
};

inline PortClient PortHub::add_client() {
  assert(queues_.size() < 16);
  PortClient c;
  c.hub_ = this;
  c.id_ = static_cast<unsigned>(queues_.size());
  queues_.emplace_back();
  return c;
}

inline void PortHub::tick() {
  mem::MemRsp rsp;
  while (port_->pop_response(rsp)) {
    const unsigned client = rsp.id >> kTagBits;
    assert(client < queues_.size());
    rsp.id &= (1u << kTagBits) - 1;
    queues_[client].push_back(rsp);
    ++queued_;
  }
}

inline bool PortClient::can_request() const {
  assert(valid());
  return hub_->port_->can_accept();
}

inline void PortClient::request(mem::MemReq req, std::uint32_t tag) {
  assert(valid() && can_request());
  assert(tag < (1u << PortHub::kTagBits));
  req.id = (id_ << PortHub::kTagBits) | tag;
  hub_->port_->push_request(req);
}

inline bool PortClient::pop_response(mem::MemRsp& out) {
  assert(valid());
  auto& q = hub_->queues_[id_];
  if (q.empty()) return false;
  out = q.take_front();
  --hub_->queued_;
  return true;
}

}  // namespace issr::ssr
