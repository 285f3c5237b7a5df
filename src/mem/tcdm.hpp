// Tightly-coupled data memory: word-interleaved SRAM banks behind a
// single-cycle-arbitration interconnect, as in the Snitch cluster (32
// banks, 256 KiB, §II-C). Each bank serves one request per cycle; masters
// whose request loses arbitration stall until granted, which is the bank-
// conflict effect that lowers cluster ISSR utilization from 0.80 to ~0.71
// in the paper's Fig. 4c discussion.
//
// The DMA engine accesses the TCDM through a separate wide path: it claims
// whole banks for the current cycle (claim_for_dma) before core-side
// arbitration runs, modelling its 512-bit port.
//
// Arbitration is O(masters + busy banks) per cycle: one pass buckets
// pending requests into per-bank candidate lists (intrusive linked lists
// over scratch arrays, no allocation) and sets each bucketed bank's bit in
// a 64-bit mask; a walk over that mask's set bits, lowest first, grants at
// most one candidate per bank via the per-bank round-robin pointer. DMA
// bank claims are one mask word of the same shape. The bank count is
// therefore a power of two no larger than 64.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/port.hpp"
#include "trace/trace.hpp"

namespace issr::mem {

struct TcdmConfig {
  addr_t base = 0x1000'0000;
  std::uint32_t num_banks = 32;     ///< a power of two, at most 64
  std::uint32_t bank_bytes = 8192;  ///< 32 x 8 KiB = 256 KiB
  cycle_t latency = 1;              ///< grant-to-response cycles

  std::uint64_t size_bytes() const {
    return static_cast<std::uint64_t>(num_banks) * bank_bytes;
  }
};

struct TcdmStats {
  std::uint64_t grants = 0;
  std::uint64_t conflicts = 0;  ///< master-cycles spent losing arbitration
  std::uint64_t dma_bank_claims = 0;

  double conflict_rate() const {
    const double total = static_cast<double>(grants + conflicts);
    return total > 0 ? static_cast<double>(conflicts) / total : 0.0;
  }
  bool operator==(const TcdmStats&) const = default;
};

class Tcdm {
 public:
  Tcdm(const TcdmConfig& cfg, unsigned num_masters);

  const TcdmConfig& config() const { return cfg_; }
  MemPort& port(unsigned i) { return ports_.at(i); }
  unsigned num_ports() const { return static_cast<unsigned>(ports_.size()); }

  BackingStore& store() { return store_; }
  const BackingStore& store() const { return store_; }

  /// True iff `addr` falls inside the TCDM address window.
  bool contains(addr_t addr) const {
    return addr >= cfg_.base && addr < cfg_.base + cfg_.size_bytes();
  }

  /// Bank index of a byte address (word-interleaved at 8 B granularity).
  std::uint32_t bank_of(addr_t addr) const {
    return static_cast<std::uint32_t>(
        ((addr - cfg_.base) >> kWordBytesLog2) & bank_mask_);
  }

  /// Reserve banks [first, first+count) for the DMA this cycle; must be
  /// called after the previous tick() and before the next. Returns the
  /// number of banks actually claimed (idempotent per cycle per bank).
  unsigned claim_for_dma(std::uint32_t first_bank, std::uint32_t count);

  /// Arbitrate and serve one request per non-claimed bank, mature
  /// responses, then clear DMA claims. Must run before requesters tick.
  void tick(cycle_t now);

  const TcdmStats& stats() const { return stats_; }

  /// Watchdog horizon: earliest cycle any port changes state on its own
  /// (kCycleNever when every port is drained and idle).
  cycle_t next_event() const;

  /// Register one timeline track per bank on `sink` (track process
  /// `<prefix>tcdm`); conflicted cycles then emit an instant per bank
  /// (value = masters that lost).
  void attach_trace(trace::TraceSink& sink, const std::string& prefix = "");

 private:
  TcdmConfig cfg_;
  std::uint32_t bank_mask_;  ///< num_banks - 1
  BackingStore store_;
  std::vector<MemPort> ports_;
  std::uint64_t dma_claimed_ = 0;  ///< bit b: bank b claimed this cycle
  std::vector<unsigned> rr_next_;  ///< per-bank round-robin pointer
  // Arbitration scratch (persistent to avoid per-cycle allocation):
  // head of each bank's candidate list / next candidate per master, both
  // -1-terminated and rebuilt each tick from the pending ports.
  std::vector<std::int32_t> bank_head_;
  std::vector<std::int32_t> cand_next_;
  TcdmStats stats_;
  trace::TraceSink* trace_ = nullptr;
  std::vector<std::uint32_t> bank_tracks_;
};

}  // namespace issr::mem
