// Cluster DMA engine: moves blocks between TCDM and main memory,
// supporting the 1-D and 2-D transfers the CsrMV double-buffering scheme
// relies on (§II-C, [7]). The engine is duplex, matching the 512-bit
// duplex main-memory link of the paper's cluster evaluation (§IV-B):
// transfers toward the TCDM (inbound) and toward main memory (outbound)
// progress concurrently at one 64-byte beat per direction per cycle, so
// result write-back overlaps with the next tile's load. While a beat
// touches the TCDM it claims the covered banks, contending with core
// traffic exactly like the real wide port.
//
// In a multi-cluster System the engine additionally arbitrates every
// main-memory beat against its cluster's Interconnect link (set_noc):
// a denied beat stalls the channel for the cycle (and raises the
// noc-denied flag the stall accountant attributes), and a job touching
// main memory only reports completion `link_latency` cycles after its
// final beat — the completion notification has to cross the NoC. Pending
// delayed completions count as busy() and are exposed through
// next_completion(), which bounds the cluster's event horizon.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/types.hpp"
#include "mem/interconnect.hpp"
#include "mem/main_mem.hpp"
#include "mem/tcdm.hpp"
#include "trace/trace.hpp"

namespace issr::mem {

/// One queued transfer descriptor (2-D; 1-D is rows == 1).
struct DmaJob {
  addr_t src = 0;
  addr_t dst = 0;
  std::uint64_t row_bytes = 0;  ///< contiguous bytes per row
  std::uint64_t rows = 1;
  std::int64_t src_stride = 0;  ///< byte stride between row starts
  std::int64_t dst_stride = 0;

  std::uint64_t total_bytes() const { return row_bytes * rows; }
};

struct DmaStats {
  std::uint64_t jobs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t busy_cycles = 0;  ///< cycles with >= 1 channel transferring
  std::uint64_t noc_denied_cycles = 0;  ///< cycles >= 1 channel lost the NoC
};

class Dma {
 public:
  Dma(Tcdm& tcdm, MainMemory& main) : tcdm_(tcdm), main_(main) {}

  /// Route every main-memory beat through `noc` as cluster `cluster`.
  /// Null (the default) keeps the private ideal link: no arbitration, no
  /// completion latency — the single-cluster model is unchanged.
  void set_noc(Interconnect* noc, unsigned cluster) {
    noc_ = noc;
    cluster_ = cluster;
  }

  /// Queue a 1-D copy. Transfers with a main-memory destination use the
  /// outbound channel; everything else (including TCDM->TCDM) inbound.
  void start_1d(addr_t dst, addr_t src, std::uint64_t bytes);

  /// Queue a 2-D copy of `rows` rows of `row_bytes` each.
  void start_2d(addr_t dst, addr_t src, std::uint64_t row_bytes,
                std::uint64_t rows, std::int64_t dst_stride,
                std::int64_t src_stride);

  /// True while any work is outstanding: queued jobs *or* completions
  /// still in flight across the NoC. Controllers and the no-progress
  /// watchdog must treat a latency-delayed completion as activity.
  bool busy() const {
    return transferring() || !in_.pending.empty() || !out_.pending.empty();
  }
  /// True while a channel has queued jobs (beats still to move).
  bool transferring() const {
    return !in_.jobs.empty() || !out_.jobs.empty();
  }
  /// Earliest cycle a delayed completion matures, or kCycleNever. The
  /// cluster's next_event() is bounded by it, so a cluster waiting only
  /// on a maturing completion never reads as wedged.
  cycle_t next_completion() const {
    cycle_t e = kCycleNever;
    if (!in_.pending.empty()) e = in_.pending.front();
    if (!out_.pending.empty() && out_.pending.front() < e) {
      e = out_.pending.front();
    }
    return e;
  }
  /// True iff a channel was denied a NoC beat in the tick just performed
  /// (feeds the noc_contention stall bucket).
  bool noc_denied_this_cycle() const { return noc_denied_; }

  /// Number of transfers fully completed since construction; lets
  /// controllers detect completion of a specific queued job.
  std::uint64_t completed_jobs() const { return completed_; }

  /// Per-channel completion counters. Each channel is FIFO, so a
  /// controller can record `completed_in() + n` when queueing its n-th
  /// pending inbound job and poll for that watermark.
  std::uint64_t completed_in() const { return completed_in_; }
  std::uint64_t completed_out() const { return completed_out_; }

  /// Advance one cycle: move up to one beat per channel. Must tick after
  /// the previous TCDM tick and before the next (its bank claims apply to
  /// the upcoming arbitration cycle).
  void tick(cycle_t now);

  /// Deterministic fault injection (sim::InjectKind::kDmaStall): freeze
  /// both channels — every subsequent tick moves no beats while queued
  /// jobs keep the engine hot (next_event == now), so the run burns to
  /// its --max-cycles budget and faults with kCycleLimit. Irreversible
  /// for the run.
  void inject_stall() { stalled_ = true; }
  bool stalled() const { return stalled_; }

  const DmaStats& stats() const { return stats_; }

  /// Register "inbound"/"outbound" timeline tracks (track process
  /// `<prefix>dma`); each channel then traces one slice per busy interval
  /// (back-to-back jobs merge).
  void attach_trace(trace::TraceSink& sink, const std::string& prefix = "");

 private:
  struct Channel {
    std::deque<DmaJob> jobs;
    std::uint64_t row_done = 0;   ///< bytes moved in the current row
    std::uint64_t rows_done = 0;  ///< completed rows of the current job
    /// Maturity cycles of completions still crossing the NoC (FIFO,
    /// monotone: completion order matches job order per channel).
    std::deque<cycle_t> pending;
    trace::Tracer trace;
    bool was_busy = false;  ///< an open "xfer" trace slice
  };

  /// Main-memory-side addresses of the channel's current beat.
  struct BeatAddrs {
    addr_t src = 0;
    addr_t dst = 0;
  };
  BeatAddrs beat_addrs(const Channel& ch) const;

  /// Move up to kBeatBytes of the channel's current job; returns bytes.
  unsigned move_beat(Channel& ch, std::uint64_t& completed_counter,
                     cycle_t now);
  /// Returns true if the channel transferred this cycle.
  bool tick_channel(Channel& ch, std::uint64_t& completed_counter,
                    cycle_t now);

  Tcdm& tcdm_;
  MainMemory& main_;
  Interconnect* noc_ = nullptr;
  unsigned cluster_ = 0;
  Channel in_;   ///< destination inside the TCDM
  Channel out_;  ///< destination in main memory
  std::uint64_t completed_ = 0;
  std::uint64_t completed_in_ = 0;
  std::uint64_t completed_out_ = 0;
  bool noc_denied_ = false;  ///< any channel denied in the current tick
  bool stalled_ = false;     ///< injected freeze (fault testing)
  DmaStats stats_;
};

}  // namespace issr::mem
