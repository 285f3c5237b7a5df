#include "mem/tcdm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

namespace issr::mem {

Tcdm::Tcdm(const TcdmConfig& cfg, unsigned num_masters)
    : cfg_(cfg),
      bank_mask_(cfg.num_banks - 1),
      store_(cfg.base, cfg.size_bytes()),
      ports_(num_masters),
      rr_next_(cfg.num_banks, 0),
      bank_head_(cfg.num_banks, -1),
      cand_next_(num_masters, -1) {
  // The busy-bank and DMA-claim masks hold one bit per bank.
  assert(std::has_single_bit(cfg.num_banks) && cfg.num_banks <= 64);
}

void Tcdm::attach_trace(trace::TraceSink& sink, const std::string& prefix) {
  trace_ = &sink;
  bank_tracks_.clear();
  bank_tracks_.reserve(cfg_.num_banks);
  for (std::uint32_t b = 0; b < cfg_.num_banks; ++b) {
    bank_tracks_.push_back(
        sink.add_track(prefix + "tcdm", "bank" + std::to_string(b)));
  }
}

unsigned Tcdm::claim_for_dma(std::uint32_t first_bank, std::uint32_t count) {
  unsigned claimed = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t bit = std::uint64_t{1}
                              << ((first_bank + i) & bank_mask_);
    if ((dma_claimed_ & bit) == 0) {
      dma_claimed_ |= bit;
      ++claimed;
      ++stats_.dma_bank_claims;
    }
  }
  return claimed;
}

void Tcdm::tick(cycle_t now) {
  const unsigned n_ports = static_cast<unsigned>(ports_.size());

  // Mature in-flight responses and bucket pending requests into per-bank
  // candidate lists (ascending master order within each list): one pass
  // over the masters instead of a banks x masters scan.
  std::uint64_t busy = 0;  // bit b: bank b has a candidate
  for (unsigned m = n_ports; m-- > 0;) {
    MemPort& p = ports_[m];
    p.mature_until(now);
    if (!p.has_pending()) continue;
    const addr_t addr = p.pending().addr;
    // Requests outside the TCDM window are a wiring error in this model;
    // they are never granted (and trip this assert, which every build
    // type keeps).
    assert(contains(addr));
    if (!contains(addr)) continue;
    const std::uint32_t b = bank_of(addr);
    cand_next_[m] = bank_head_[b];
    bank_head_[b] = static_cast<std::int32_t>(m);
    busy |= std::uint64_t{1} << b;
  }

  // Ascending-bank walk over the busy banks keeps grant/trace ordering
  // identical to a dense scan of every bank.
  for (; busy != 0; busy &= busy - 1) {
    const auto b = static_cast<std::uint32_t>(std::countr_zero(busy));
    const std::int32_t head = bank_head_[b];
    bank_head_[b] = -1;
    if ((dma_claimed_ >> b) & 1u) {
      // Bank taken by DMA this cycle: all masters targeting it stall.
      unsigned losers = 0;
      for (std::int32_t m = head; m >= 0; m = cand_next_[m]) {
        ports_[m].note_stalled();
        ++stats_.conflicts;
        ++losers;
      }
      if (trace_ && losers > 0) {
        trace_->record({now, bank_tracks_[b], trace::Phase::kInstant,
                        "dma-claim-conflict", losers});
      }
      continue;
    }
    // Pick the candidate closest after the round-robin pointer so no
    // master is statically prioritized; the rest lose this cycle.
    const unsigned rr = rr_next_[b];
    unsigned granted = 0;
    unsigned best_dist = n_ports;
    for (std::int32_t m = head; m >= 0; m = cand_next_[m]) {
      const unsigned mu = static_cast<unsigned>(m);
      const unsigned dist = (mu + n_ports - rr) % n_ports;
      if (dist < best_dist) {
        best_dist = dist;
        granted = mu;
      }
    }
    unsigned losers = 0;
    for (std::int32_t m = head; m >= 0; m = cand_next_[m]) {
      if (static_cast<unsigned>(m) == granted) continue;
      ports_[m].note_stalled();
      ++stats_.conflicts;
      ++losers;
    }
    if (trace_ && losers > 0) {
      trace_->record({now, bank_tracks_[b], trace::Phase::kInstant,
                      "conflict", losers});
    }
    rr_next_[b] = (granted + 1) % n_ports;
    ++stats_.grants;
    ports_[granted].serve_pending(store_, now, cfg_.latency);
  }

  // DMA claims are per-cycle.
  dma_claimed_ = 0;
}

cycle_t Tcdm::next_event() const {
  cycle_t e = kCycleNever;
  for (const auto& p : ports_) e = std::min(e, p.next_event());
  return e;
}

}  // namespace issr::mem
