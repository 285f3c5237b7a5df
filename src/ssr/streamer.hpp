// The ISSR streamer (Fig. 2): a set of lanes (default: lane 0 = SSR,
// lane 1 = ISSR), the architectural-register switch mapping ft0/ft1 onto
// the lanes while redirection is enabled, and the shadowed configuration
// register interface the core programs through CSR writes (csr_map.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/csr_map.hpp"
#include "ssr/lane.hpp"

namespace issr::ssr {

struct StreamerParams {
  LaneParams ssr_lane;   ///< lane 0 (plain SSR)
  LaneParams issr_lane;  ///< lane 1 (ISSR)

  StreamerParams() {
    ssr_lane.has_indirection = false;
    issr_lane.has_indirection = true;
  }
};

class Streamer {
 public:
  /// `ssr_port`: lane 0's client on the port shared with core/FPU;
  /// `issr_port`: lane 1's exclusive port client (§II-C topology);
  /// `issr_idx_port`: only for the dedicated-index-port ablation.
  Streamer(const StreamerParams& params, PortClient ssr_port,
           PortClient issr_port, PortClient issr_idx_port = {});

  static constexpr unsigned kNumLanes = 2;
  static constexpr unsigned kSsrLane = 0;
  static constexpr unsigned kIssrLane = 1;

  Lane& lane(unsigned i) { return *lanes_.at(i); }
  const Lane& lane(unsigned i) const { return *lanes_.at(i); }

  // --- Register redirection (switch D in Fig. 2) --------------------------
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// True iff FP register `freg` currently has stream semantics.
  bool is_stream_reg(unsigned freg) const {
    return enabled_ && freg < kNumLanes;
  }

  // --- CSR configuration interface ----------------------------------------
  /// Handle a CSR write to the streamer config space. Returns false if the
  /// write cannot be accepted this cycle (lane shadow full) and the core
  /// must retry. Writing kRptr/kWptr commits the shadow and arms a job.
  bool write_cfg(unsigned lane, isa::SsrCfgReg reg, std::uint64_t value);

  /// Handle a CSR read from the config space.
  std::uint64_t read_cfg(unsigned lane, isa::SsrCfgReg reg) const;

  /// True iff any lane still has an active or parked job.
  bool busy() const;

  /// Latch the cycle number into every lane before the core/FPSS phases
  /// run, so job start/finish trace slices triggered from those phases
  /// (CSR submit, register-file pop) carry the current cycle.
  void begin_cycle(cycle_t now) {
    for (auto& l : lanes_) l->begin_cycle(now);
  }

  void tick(cycle_t now);

  /// Watchdog horizon: min over the lanes' next_event.
  cycle_t next_event(cycle_t now) const {
    cycle_t e = kCycleNever;
    for (const auto& l : lanes_) {
      const cycle_t le = l->next_event(now);
      if (le < e) e = le;
    }
    return e;
  }

 private:
  /// Raw shadow register values as written by software, per lane.
  struct CfgRegs {
    std::uint64_t reps = 0;
    std::uint64_t bound[kNumLoops] = {0, 0, 0, 0};
    std::int64_t stride[kNumLoops] = {0, 0, 0, 0};
    std::uint64_t idx_cfg = 0;
    std::uint64_t idx_base = 0;
  };

  LaneJob job_from_cfg(const CfgRegs& cfg, std::uint64_t ptr,
                       bool write) const;

  std::vector<std::unique_ptr<Lane>> lanes_;
  CfgRegs cfg_[kNumLanes];
  bool enabled_ = false;
};

}  // namespace issr::ssr
