#include "ssr/lane.hpp"

#include <bit>
#include <cassert>

#include "common/bitutil.hpp"
#include "mem/backing_store.hpp"

namespace issr::ssr {

LaneJob make_affine_1d(addr_t base, std::uint64_t count,
                       std::int64_t stride_bytes, bool write,
                       std::uint64_t reps) {
  assert(count >= 1);
  LaneJob job;
  job.mode = StreamMode::kAffine;
  job.write = write;
  job.reps = write ? 0 : reps;
  job.bound[0] = count - 1;
  job.stride[0] = stride_bytes;
  job.data_base = base;
  return job;
}

LaneJob make_indirect(addr_t data_base, addr_t idx_base, std::uint64_t count,
                      sparse::IndexWidth width, unsigned idx_shift,
                      bool write) {
  assert(count >= 1);
  LaneJob job;
  job.mode = width == sparse::IndexWidth::kU16 ? StreamMode::kIndirect16
                                               : StreamMode::kIndirect32;
  job.write = write;
  job.bound[0] = count - 1;
  job.stride[0] = 8;  // fixed by hardware in indirection mode (§II-A)
  job.idx_shift = idx_shift;
  job.idx_base = idx_base;
  job.data_base = data_base;
  return job;
}

Lane::Lane(LaneParams params, PortClient port)
    : params_(params),
      port_(port),
      idx_fifo_(params.idx_fifo_depth),
      addr_queue_(params.addr_queue_depth),
      data_fifo_(params.data_fifo_depth) {
  assert(!params_.dedicated_idx_port &&
         "dedicated_idx_port requires the two-port constructor");
}

Lane::Lane(LaneParams params, PortClient data_port, PortClient idx_port)
    : params_(params),
      port_(data_port),
      idx_port_(idx_port),
      idx_fifo_(params.idx_fifo_depth),
      addr_queue_(params.addr_queue_depth),
      data_fifo_(params.data_fifo_depth) {
  assert(params_.dedicated_idx_port);
}

namespace {

/// Static-lifetime slice label for a job (trace events keep the pointer).
const char* job_label(const LaneJob& job) {
  if (is_indirect(job.mode)) {
    const bool u16 = job.mode == StreamMode::kIndirect16;
    if (job.write) return u16 ? "indirect16-write" : "indirect32-write";
    return u16 ? "indirect16-read" : "indirect32-read";
  }
  return job.write ? "affine-write" : "affine-read";
}

}  // namespace

void Lane::submit(const LaneJob& job) {
  assert(can_accept_job());
  assert(params_.has_indirection || !is_indirect(job.mode));
  if (!active_) {
    start(job);
  } else {
    shadow_ = job;
  }
}

void Lane::start(const LaneJob& job) {
  assert(!active_);
  assert(data_fifo_.empty() && addr_queue_.empty() && idx_fifo_.empty());
  job_ = job;
  active_ = true;
  ++stats_.jobs_started;
  trace_.begin(now_, job_label(job_), job_.total_elems());

  for (unsigned l = 0; l < kNumLoops; ++l) affine_idx_[l] = 0;
  affine_addr_ = job_.data_base;
  affine_left_ = is_indirect(job_.mode) ? 0 : job_.total_addrs();

  head_reps_served_ = 0;
  elems_left_ = job_.write ? 0 : job_.total_elems();
  stores_left_ = job_.write ? job_.total_addrs() : 0;
  pushes_left_ = stores_left_;

  idx_outstanding_ = 0;
  data_outstanding_ = 0;
  serial_offset_ = 0;
  rr_idx_turn_ = false;

  if (is_indirect(job_.mode)) {
    const unsigned ib = mode_index_bytes(job_.mode);
    const std::uint64_t count = job_.bound[0] + 1;
    const addr_t first_word = align_down(job_.idx_base, 8);
    const addr_t last_byte = job_.idx_base + count * ib - 1;
    idx_word_addr_ = first_word;
    idx_words_left_ = (align_down(last_byte, 8) - first_word) / 8 + 1;
    serial_offset_ =
        static_cast<unsigned>((job_.idx_base - first_word) / ib);
    idcs_left_ = count;
  } else {
    idx_words_left_ = 0;
    idcs_left_ = 0;
  }
}

double Lane::peek() const {
  assert(can_pop());
  return data_fifo_.front();
}

double Lane::pop() {
  assert(can_pop());
  const double v = data_fifo_.front();
  ++head_reps_served_;
  if (head_reps_served_ > job_.reps) {
    data_fifo_.pop();
    head_reps_served_ = 0;
  }
  assert(elems_left_ > 0);
  --elems_left_;
  ++stats_.elems_read;
  finish_if_done();
  return v;
}

void Lane::push(double value) {
  assert(can_push());
  data_fifo_.push(value);
  --pushes_left_;
  ++stats_.elems_written;
}

addr_t Lane::affine_next() {
  assert(affine_left_ > 0);
  const addr_t addr = affine_addr_;
  --affine_left_;
  // Advance nested iterators, innermost first; recompute the address from
  // the iterator state (hardware realizes this with incremental adds).
  for (unsigned l = 0; l < kNumLoops; ++l) {
    if (affine_idx_[l] < job_.bound[l]) {
      ++affine_idx_[l];
      break;
    }
    affine_idx_[l] = 0;
  }
  addr_t next = job_.data_base;
  for (unsigned l = 0; l < kNumLoops; ++l) {
    next += static_cast<addr_t>(static_cast<std::int64_t>(affine_idx_[l]) *
                                job_.stride[l]);
  }
  affine_addr_ = next;
  return addr;
}

void Lane::serialize_one() {
  if (!active_ || !is_indirect(job_.mode)) return;
  if (idcs_left_ == 0 || addr_queue_.full() || idx_fifo_.empty()) return;
  advanced_tick_ = true;

  const unsigned ib = mode_index_bytes(job_.mode);
  const unsigned per_word = 8 / ib;
  const std::uint64_t word = idx_fifo_.front();
  const unsigned shift = serial_offset_ * ib * 8;
  const std::uint64_t mask = ib == 2 ? 0xffffull : 0xffffffffull;
  const std::uint64_t idx = (word >> shift) & mask;

  const addr_t data_addr =
      job_.data_base + (idx << (kWordBytesLog2 + job_.idx_shift));
  addr_queue_.push(data_addr);
  --idcs_left_;
  ++serial_offset_;
  if (serial_offset_ == per_word || idcs_left_ == 0) {
    idx_fifo_.pop();
    serial_offset_ = 0;
  }
}

bool Lane::idx_wants_port() const {
  if (!active_ || !is_indirect(job_.mode)) return false;
  if (idx_words_left_ == 0) return false;
  return idx_outstanding_ + idx_fifo_.size() < idx_fifo_.capacity();
}

bool Lane::data_wants_port() const {
  if (!active_) return false;
  if (job_.write) {
    if (data_fifo_.empty() || stores_left_ == 0) return false;
    return is_indirect(job_.mode) ? !addr_queue_.empty() : affine_left_ > 0;
  }
  const bool credit =
      data_outstanding_ + data_fifo_.size() < data_fifo_.capacity();
  if (!credit) return false;
  return is_indirect(job_.mode) ? !addr_queue_.empty() : affine_left_ > 0;
}

void Lane::issue_idx_fetch() {
  advanced_tick_ = true;
  mem::MemReq req;
  req.addr = idx_word_addr_;
  req.bytes = 8;
  req.is_write = false;
  (params_.dedicated_idx_port ? idx_port_ : port_).request(req, kTagIdx);
  idx_word_addr_ += 8;
  --idx_words_left_;
  ++idx_outstanding_;
  ++stats_.idx_word_reqs;
}

void Lane::issue_data_access() {
  advanced_tick_ = true;
  const addr_t addr =
      is_indirect(job_.mode) ? addr_queue_.pop() : affine_next();
  mem::MemReq req;
  req.addr = addr;
  req.bytes = 8;
  if (job_.write) {
    req.is_write = true;
    req.wdata = std::bit_cast<std::uint64_t>(data_fifo_.pop());
    assert(stores_left_ > 0);
    --stores_left_;
  }
  port_.request(req, kTagData);
  if (!job_.write) ++data_outstanding_;
  ++stats_.data_reqs;
}

void Lane::issue_idx_fetch_fused() {
  advanced_tick_ = true;
  bypass_.valid = true;
  bypass_.is_idx = true;
  bypass_.is_write = false;
  bypass_.addr = idx_word_addr_;
  idx_word_addr_ += 8;
  --idx_words_left_;
  ++idx_outstanding_;
  ++stats_.idx_word_reqs;
}

void Lane::issue_data_access_fused() {
  advanced_tick_ = true;
  addr_t addr;
  if (is_indirect(job_.mode)) {
    addr = addr_queue_.pop();
  } else if ((job_.bound[1] | job_.bound[2] | job_.bound[3]) == 0) {
    // 1-D affine fast path: the generic affine_next() recomputes the
    // address from all four iterators; with the outer bounds at zero the
    // recurrence is a single add (identical values by construction).
    assert(affine_left_ > 0);
    addr = affine_addr_;
    --affine_left_;
    if (affine_idx_[0] < job_.bound[0]) {
      ++affine_idx_[0];
      affine_addr_ += static_cast<addr_t>(job_.stride[0]);
    } else {
      affine_idx_[0] = 0;
      affine_addr_ = job_.data_base;
    }
  } else {
    addr = affine_next();
  }
  bypass_.valid = true;
  bypass_.is_idx = false;
  bypass_.addr = addr;
  if (job_.write) {
    bypass_.is_write = true;
    bypass_.wdata = std::bit_cast<std::uint64_t>(data_fifo_.pop());
    assert(stores_left_ > 0);
    --stores_left_;
  } else {
    bypass_.is_write = false;
    ++data_outstanding_;
  }
  ++stats_.data_reqs;
}

void Lane::materialize_bypass() {
  if (!bypass_.valid) return;
  // The slot and a pending request on this lane's port never coexist
  // (the mux gate saw the port free when the slot filled, and nothing
  // else pushes to the ISSR port at all), so the request assertion in
  // PortClient::request holds.
  mem::MemReq req;
  req.addr = bypass_.addr;
  req.bytes = 8;
  req.is_write = bypass_.is_write;
  req.wdata = bypass_.wdata;
  port_.request(req, bypass_.is_idx ? kTagIdx : kTagData);
  bypass_.valid = false;
}

void Lane::finish_if_done() {
  if (!active_) return;
  const bool done = job_.write
                        ? (stores_left_ == 0 && data_fifo_.empty())
                        : (elems_left_ == 0);
  if (!done) return;
  assert(!job_.write || idcs_left_ == 0 || !is_indirect(job_.mode));
  active_ = false;
  trace_.end(now_, job_label(job_));
  if (shadow_.has_value()) {
    const LaneJob next = *shadow_;
    shadow_.reset();
    start(next);
  }
}

void Lane::tick(cycle_t now) {
  now_ = now;
  advanced_tick_ = false;
  // 1. Collect memory responses.
  mem::MemRsp rsp;
  while (port_.pop_response(rsp)) {
    advanced_tick_ = true;
    if (rsp.id == kTagIdx) {
      assert(idx_outstanding_ > 0);
      --idx_outstanding_;
      idx_fifo_.push(rsp.rdata);
    } else {
      assert(data_outstanding_ > 0);
      --data_outstanding_;
      data_fifo_.push(std::bit_cast<double>(rsp.rdata));
    }
  }
  if (params_.dedicated_idx_port) {
    while (idx_port_.pop_response(rsp)) {
      advanced_tick_ = true;
      assert(rsp.id == kTagIdx && idx_outstanding_ > 0);
      --idx_outstanding_;
      idx_fifo_.push(rsp.rdata);
    }
  }

  // 2. Serializer: one index per cycle.
  serialize_one();

  // 3. Issue requests. With the default shared port, a round-robin mux
  //    admits at most one of {index fetch, data access} per cycle
  //    (Fig. 2 F); with a dedicated index port both can issue.
  if (active_) {
    if (params_.dedicated_idx_port) {
      if (idx_wants_port() && idx_port_.can_request()) issue_idx_fetch();
      if (data_wants_port() && port_.can_request()) issue_data_access();
    } else if (port_.can_request()) {
      const bool want_idx = idx_wants_port();
      const bool want_data = data_wants_port();
      if (want_idx && want_data) {
        ++stats_.port_mux_conflicts;
        if (rr_idx_turn_) {
          issue_idx_fetch();
        } else {
          issue_data_access();
        }
        rr_idx_turn_ = !rr_idx_turn_;
      } else if (want_idx) {
        issue_idx_fetch();
      } else if (want_data) {
        issue_data_access();
      }
    }
  }

  finish_if_done();
}

// Phase 1a of the fused ticks: deliver the bypassed request issued in
// the previous fused cycle — the moment the unfused path would have
// served it (this cycle's memory tick, which the caller has just run;
// latency <= 1, so a read's response matures and routes in the same
// cycle). Stores commit silently, exactly like MemPort::serve_pending,
// and do not count as lane progress; port traffic counters are credited
// here, at serve time.
void Lane::deliver_bypass(mem::MemPort& port, mem::BackingStore& store) {
  if (bypass_.valid) {
    bypass_.valid = false;
    if (bypass_.is_write) {
      store.store_u64(bypass_.addr, bypass_.wdata, data_memo_);
      ++port.mutable_stats().writes;
    } else {
      const std::uint64_t rdata = store.load_u64(
          bypass_.addr, bypass_.is_idx ? idx_memo_ : data_memo_);
      ++port.mutable_stats().reads;
      advanced_tick_ = true;
      if (bypass_.is_idx) {
        assert(idx_outstanding_ > 0);
        --idx_outstanding_;
        idx_fifo_.push(rdata);
      } else {
        assert(data_outstanding_ > 0);
        --data_outstanding_;
        data_fifo_.push(std::bit_cast<double>(rdata));
      }
    }
  }
}

// Phase 3 of the fused ticks: the round-robin index/data mux, identical
// to tick() with the shared-port topology but issuing into the bypass
// slot. The caller has checked the port gate.
void Lane::fused_mux() {
  assert(!bypass_.valid);
  const bool want_idx = idx_wants_port();
  const bool want_data = data_wants_port();
  if (want_idx && want_data) {
    ++stats_.port_mux_conflicts;
    if (rr_idx_turn_) {
      issue_idx_fetch_fused();
    } else {
      issue_data_access_fused();
    }
    rr_idx_turn_ = !rr_idx_turn_;
  } else if (want_idx) {
    issue_idx_fetch_fused();
  } else if (want_data) {
    issue_data_access_fused();
  }
}

void Lane::tick_fused(cycle_t now, mem::MemPort& port,
                      mem::BackingStore& store) {
  now_ = now;
  advanced_tick_ = false;
  assert(!params_.dedicated_idx_port);
  deliver_bypass(port, store);

  // 1b. Seam crossing: drain responses to requests this lane issued
  //     through the real port (a preceding unfused cycle, or a
  //     materialized slot). The hubs tick in fused cycles too, so these
  //     arrive through the client queue exactly as in tick(). Mutually
  //     exclusive with a full bypass slot: the slot only fills when the
  //     lane has no real request in flight.
  mem::MemRsp rsp;
  while (port_.pop_response(rsp)) {
    advanced_tick_ = true;
    if (rsp.id == kTagIdx) {
      assert(idx_outstanding_ > 0);
      --idx_outstanding_;
      idx_fifo_.push(rsp.rdata);
    } else {
      assert(data_outstanding_ > 0);
      --data_outstanding_;
      data_fifo_.push(std::bit_cast<double>(rsp.rdata));
    }
  }

  // 2. Serializer: one index per cycle.
  serialize_one();

  // 3. Port mux. The gate stays on the real port, so a core/FP-LSU
  //    request that claimed the shared port this cycle defers the lane
  //    exactly as in the unfused path.
  if (active_ && port_.can_request()) fused_mux();

  finish_if_done();
}

void Lane::tick_parked(cycle_t now, mem::MemPort& port,
                       mem::BackingStore& store) {
  now_ = now;
  advanced_tick_ = false;
  // Parked-span invariants (core parked on the sync CSR, FPSS in pure
  // FREP replay, ports fully drained on entry, nobody requests): the
  // response-drain phase would find nothing, and the mux gate is
  // trivially open — the only possible occupant of this port is the
  // lane's own traffic, which sits in the bypass slot instead.
  assert(!params_.dedicated_idx_port);
  assert(port.next_event() == kCycleNever && "parked span: port not quiet");
  deliver_bypass(port, store);
  serialize_one();
  if (active_) fused_mux();
  finish_if_done();
}

}  // namespace issr::ssr
