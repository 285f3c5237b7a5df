// One streamer lane: either a plain SSR (affine address generation, [5])
// or an ISSR with the indirection extension of this paper (§II-A/B).
//
// Architecture mirrored from Fig. 1/2:
//  - four nested affine iterators feeding either the data mover (affine
//    mode) or the index fetcher (indirection mode);
//  - an index word FIFO decoupling index fetches, guarded by an
//    outstanding-request credit counter;
//  - an index serializer with a two-bit short-offset counter extracting
//    16/32-bit indices from 64-bit words at arbitrary alignment;
//  - static word shift (<<3) plus a programmable extra shift, added to the
//    data base address;
//  - a data FIFO (default five stages) decoupling the register file from
//    memory, reused for read and write streams;
//  - a round-robin multiplexer combining index and data traffic onto the
//    lane's single memory port (peak data utilization 4/5 at 16-bit and
//    2/3 at 32-bit indices — the Fig. 4a ceilings).
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "ssr/config.hpp"
#include "ssr/fifo.hpp"
#include "ssr/port_hub.hpp"
#include "trace/trace.hpp"

namespace issr::ssr {

struct LaneStats {
  std::uint64_t jobs_started = 0;
  std::uint64_t data_reqs = 0;
  std::uint64_t idx_word_reqs = 0;
  std::uint64_t elems_read = 0;     ///< register-file pops served
  std::uint64_t elems_written = 0;  ///< register-file pushes absorbed
  std::uint64_t port_mux_conflicts = 0;  ///< idx & data wanted same cycle
  std::uint64_t reg_starved_cycles = 0;  ///< read attempted, FIFO empty

  bool operator==(const LaneStats&) const = default;
};

struct LaneParams {
  std::size_t data_fifo_depth = 5;  ///< paper default: five stages
  std::size_t idx_fifo_depth = 4;   ///< index word buffer
  std::size_t addr_queue_depth = 4; ///< serialized data-address queue
  bool has_indirection = false;     ///< ISSR (true) or plain SSR (false)
  /// Ablation of §II-B: give the index fetcher its own memory port instead
  /// of round-robin multiplexing it with the data mover (the "three ports
  /// per core" alternative trading ~1.5x interconnect area for the removal
  /// of the 4/5 and 2/3 utilization ceilings).
  bool dedicated_idx_port = false;
};

class Lane {
 public:
  Lane(LaneParams params, PortClient port);
  /// Constructor for the dedicated-index-port ablation.
  Lane(LaneParams params, PortClient data_port, PortClient idx_port);

  const LaneParams& params() const { return params_; }

  // --- Job control (from the config interface) ---------------------------
  /// True iff a new job can be accepted (shadow register free).
  bool can_accept_job() const { return !shadow_.has_value(); }
  /// Submit a job: starts immediately if idle, otherwise parks in the
  /// shadow config until the running job completes.
  void submit(const LaneJob& job);
  bool active() const { return active_; }
  /// Runtime job (valid only while active).
  const LaneJob& job() const { return job_; }

  // --- Register-file interface (from the FPU subsystem) -------------------
  /// Read stream: a datum is available to pop this cycle.
  bool can_pop() const { return active_ && !job_.write && !data_fifo_.empty(); }
  double pop();
  /// Peek without consuming (repetition handling peeks then pops).
  double peek() const;

  /// Write stream: the FIFO can absorb a datum this cycle. False once the
  /// job has received all its elements (further writes belong to the next
  /// job and must wait for its start).
  bool can_push() const {
    return active_ && job_.write && !data_fifo_.full() && pushes_left_ > 0;
  }
  void push(double value);

  /// Why a read stream's FIFO was empty when the FPU last failed to pop —
  /// the stall accountant uses this to attribute starved cycles
  /// (trace/stall.hpp).
  enum class StarveCause {
    kNone,            ///< not an active read stream
    kMemLatency,      ///< data fetches are in flight, responses pending
    kSerializer,      ///< the index fetch/serializer path has produced no
                      ///< data address yet (the ISSR indirection gate)
    kPortContention,  ///< an address is ready but the data mover did not
                      ///< get the memory port (mux turn / arbitration)
  };

  /// Called by the FPU subsystem when it wanted to pop but could not;
  /// feeds the starvation statistic and latches the cause. The latch
  /// matters: the FPU ticks before the streamer, so the cause must be
  /// sampled here — after the lane's own tick the serializer/data mover
  /// have already advanced past the state that explains the empty FIFO.
  void note_starved() {
    ++stats_.reg_starved_cycles;
    last_starve_cause_ = current_starve_cause();
  }

  /// The cause latched by the most recent note_starved().
  StarveCause last_starve_cause() const { return last_starve_cause_; }

  // --- Simulation ---------------------------------------------------------
  /// Advance one cycle: collect memory responses, run the serializer,
  /// issue at most one memory request through the port mux.
  void tick(cycle_t now);

  /// Compiled-tier fused tick: identical state transitions to tick(), but
  /// the lane's own memory traffic bypasses the port protocol entirely —
  /// a request issues into a one-slot bypass register and is delivered
  /// against `store` at the next fused tick, right after the memory tick
  /// that would have served it (exact for latency <= 1, which the fused
  /// executor gates on). The port mux still gates on the real port, so
  /// contention with core/FP-LSU traffic is modeled exactly; responses to
  /// requests the lane issued through the real port arrive through the
  /// hub client queue as usual (the hubs run in fused cycles too). See
  /// core/compile.cpp for the cycle-order exactness argument.
  void tick_fused(cycle_t now, mem::MemPort& port, mem::BackingStore& store);

  /// Parked-span tick: tick_fused() under the fused executor's parked
  /// steady-state invariants — the lane's port carries no real traffic
  /// (no pending request, nothing in flight or routed: all lane traffic
  /// is in the bypass slot, and no other unit requests at all), so the
  /// response-drain phase and the port-free mux gate are skipped
  /// (asserted). State transitions are identical to tick_fused().
  void tick_parked(cycle_t now, mem::MemPort& port, mem::BackingStore& store);

  /// Replay a still-undelivered bypassed request through the real port —
  /// the fused executor calls this at every fused-to-unfused seam
  /// (and once after the run), so the request is served by the next
  /// memory tick and routed by the hub exactly as if it had been issued
  /// through the port in the first place.
  void materialize_bypass();

  /// Whether the last tick made progress (the fused executor's next_event
  /// shortcut; identical to next_event(now) == now).
  bool advanced_last_tick() const { return advanced_tick_; }

  /// Watchdog horizon: `now` when the last tick made progress (consumed
  /// a response, serialized an index, issued a request), else kCycleNever
  /// — every other lane wake-up is external (a memory response maturing,
  /// the FPU subsystem popping/pushing the register file, a CSR job
  /// submit) and covered by the other units' hooks.
  cycle_t next_event(cycle_t now) const {
    return advanced_tick_ ? now : kCycleNever;
  }

  const LaneStats& stats() const { return stats_; }

  /// Timeline hook: one slice per stream job (trace/).
  trace::Tracer& tracer() { return trace_; }

  /// Latch the current cycle for trace timestamps of job events raised
  /// outside tick() (submit from a CSR write, finish from a pop).
  void begin_cycle(cycle_t now) { now_ = now; }

 private:
  // Request tags distinguishing index and data responses on the port.
  static constexpr std::uint32_t kTagData = 0;
  static constexpr std::uint32_t kTagIdx = 1;

  StarveCause current_starve_cause() const {
    if (!active_ || job_.write) return StarveCause::kNone;
    if (data_outstanding_ > 0) return StarveCause::kMemLatency;
    if (is_indirect(job_.mode) && addr_queue_.empty()) {
      return StarveCause::kSerializer;
    }
    return StarveCause::kPortContention;
  }

  void start(const LaneJob& job);
  void finish_if_done();

  /// Next affine address; advances the iterators. Pre: affine_left_ > 0.
  addr_t affine_next();

  /// Serializer: move up to one index per cycle from the index-word FIFO
  /// into the data address queue.
  void serialize_one();

  /// True iff the index fetcher wants the port this cycle.
  bool idx_wants_port() const;
  /// True iff the data mover wants the port this cycle.
  bool data_wants_port() const;

  void issue_idx_fetch();
  void issue_data_access();
  /// Fused-tick issue paths: same address generation, credit accounting,
  /// and statistics as the unfused versions, but the request lands in
  /// the bypass slot instead of the port (the data mover additionally
  /// specializes the affine generator for the dominant 1-D streams —
  /// identical addresses and iterator state by construction).
  void issue_idx_fetch_fused();
  void issue_data_access_fused();

  /// Deliver the bypassed request issued in the previous fused cycle
  /// against the backing store (phase 1a of tick_fused/tick_parked).
  void deliver_bypass(mem::MemPort& port, mem::BackingStore& store);
  /// The round-robin index/data mux issuing into the bypass slot
  /// (phase 3 of tick_fused/tick_parked; caller checked the port gate).
  void fused_mux();

  LaneParams params_;
  PortClient port_;
  PortClient idx_port_;  ///< valid only with dedicated_idx_port

  // Job state.
  bool active_ = false;
  LaneJob job_;
  std::optional<LaneJob> shadow_;

  // Affine iterator state (also drives the index fetch in indirect mode).
  std::uint64_t affine_idx_[kNumLoops] = {0, 0, 0, 0};
  addr_t affine_addr_ = 0;
  std::uint64_t affine_left_ = 0;  ///< addresses not yet generated

  // Indirection state.
  std::uint64_t idx_words_left_ = 0;   ///< index words not yet requested
  addr_t idx_word_addr_ = 0;           ///< next index word address
  unsigned idx_outstanding_ = 0;       ///< in-flight index word fetches
  Fifo<std::uint64_t> idx_fifo_;       ///< fetched index words
  unsigned serial_offset_ = 0;         ///< index slot within head word
  std::uint64_t idcs_left_ = 0;        ///< indices not yet serialized
  Fifo<addr_t> addr_queue_;            ///< serialized data addresses
  bool rr_idx_turn_ = false;           ///< round-robin pointer of the mux

  // Fused-tick bypass slot: at most one lane request per cycle (the mux
  // admits one), issued here instead of into the port and delivered at
  // the next fused tick or materialized at the next unfused seam.
  // Invariant: the slot never coexists with a pending request on the
  // lane's port (the mux gate saw the port free) and is empty whenever
  // the lane did not advance in the current cycle.
  struct Bypass {
    bool valid = false;
    bool is_idx = false;    ///< index word fetch (else data access)
    bool is_write = false;  ///< data store (write streams)
    addr_t addr = 0;
    std::uint64_t wdata = 0;
  };
  Bypass bypass_;
  // Per-stream page memos for bypass delivery: the index walk and the
  // data stream each run through their own pages.
  mem::BackingStore::PageMemo idx_memo_;
  mem::BackingStore::PageMemo data_memo_;

  // Data stream state.
  unsigned data_outstanding_ = 0;  ///< in-flight data reads
  Fifo<double> data_fifo_;
  std::uint64_t head_reps_served_ = 0;
  std::uint64_t elems_left_ = 0;   ///< register-side elements remaining
  std::uint64_t stores_left_ = 0;  ///< write stream: stores not yet issued
  std::uint64_t pushes_left_ = 0;  ///< write stream: register pushes due

  LaneStats stats_;
  trace::Tracer trace_;
  cycle_t now_ = 0;  ///< current cycle, latched by tick() for job slices
  StarveCause last_starve_cause_ = StarveCause::kNone;
  bool advanced_tick_ = false;  ///< last tick() changed lane state
};

}  // namespace issr::ssr
