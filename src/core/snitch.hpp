// Snitch integer core: tiny single-issue, in-order RV64 core ([6]). One
// instruction issues per cycle unless blocked by a scoreboard hazard, a
// full FPU-subsystem offload queue, a busy memory port, or a blocking CSR
// (FPU-subsystem sync, cluster barrier). FP instructions are offloaded
// with their integer operands captured at issue, so the core runs ahead of
// the FPU — the pseudo-dual-issue execution mode the kernels exploit.
//
// Instruction fetch is ideal (the L0/L1 caches of the cluster are modeled
// as hitting always; the paper notes only minor icache stall effects).
// Taken branches incur `branch_penalty` bubbles (default 0, matching the
// paper's 9-instructions = 9-cycles baseline inner loop; an ablation bench
// explores nonzero penalties).
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "core/fpss.hpp"
#include "isa/csr_map.hpp"
#include "isa/program.hpp"
#include "ssr/port_hub.hpp"
#include "ssr/streamer.hpp"
#include "trace/trace.hpp"

namespace issr::core {

class CompiledProgram;
struct DecodedInst;

/// What the fused executor may do with the core this cycle
/// (SnitchCore::fused_gate): run the real tick inside a fused cycle,
/// run the specialized parked tick (core blocked at the fpss-sync CSR
/// with every hazard clear — pending only the FPSS-side check the
/// caller owns), or leave the cycle to an unfused tick (seam).
enum class FusedGate : std::uint8_t { kSeam, kTick, kParked };

struct SnitchParams {
  std::uint32_t hartid = 0;
  unsigned branch_penalty = 0;
  unsigned mul_latency = 3;
  unsigned div_latency = 20;
  unsigned max_outstanding_loads = 2;
};

struct SnitchStats {
  std::uint64_t cycles = 0;
  std::uint64_t issued = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t offloads = 0;
  std::uint64_t stall_raw = 0;      ///< integer scoreboard hazard
  std::uint64_t stall_offload = 0;  ///< FPU-subsystem queue full
  std::uint64_t stall_mem = 0;      ///< LSU port busy / outstanding limit
  std::uint64_t stall_sync = 0;     ///< blocking FPU-subsystem sync CSR
  std::uint64_t stall_barrier = 0;  ///< blocking cluster barrier CSR
  std::uint64_t stall_cfg = 0;      ///< streamer shadow config full

  bool operator==(const SnitchStats&) const = default;
};

class SnitchCore {
 public:
  /// The barrier hook is called each cycle the core sits at a barrier CSR
  /// read; it returns true once the core may proceed.
  using BarrierHook = std::function<bool(std::uint32_t hartid)>;

  /// `program` is the translation of the program the core runs
  /// (core/compile.hpp); it must outlive the core.
  SnitchCore(const SnitchParams& params, const CompiledProgram& program,
             Fpss& fpss, ssr::Streamer& streamer, ssr::PortClient lsu_port);

  void set_barrier_hook(BarrierHook hook) { barrier_ = std::move(hook); }

  bool halted() const { return halted_; }
  addr_t pc() const { return pc_; }
  /// True while the core is parked at a blocking barrier CSR read —
  /// the watchdog's barrier-deadlock classifier reads it at detection.
  bool in_barrier_wait() const { return in_barrier_wait_; }

  std::uint64_t xreg(unsigned idx) const { return xregs_[idx]; }
  void set_xreg(unsigned idx, std::uint64_t v) {
    if (idx != 0) xregs_[idx] = v;
  }

  void tick(cycle_t now);

  /// Watchdog horizon: earliest future cycle at which this core's tick
  /// can differ from the tick it just performed, absent external stimulus
  /// (memory responses, FPSS writebacks, barrier release — those are
  /// covered by the other units' hooks). Returns `now` when the last tick
  /// made progress (issued, popped a response) and kCycleNever when only
  /// an external event can change anything.
  cycle_t next_event(cycle_t now) const {
    if (halted_) return kCycleNever;
    if (advanced_) return now;
    return self_wake_;
  }

  const SnitchStats& stats() const { return stats_; }

  /// Timeline hook: barrier-wait slices and a halt marker (trace/).
  trace::Tracer& tracer() { return trace_; }

  // --- Fused-executor seams (core/compile.hpp) -----------------------------
  /// Fused-executor gate, evaluated once per fused cycle. kSeam when the
  /// core is halted (the burst loop defers quiescence checks; the engine
  /// must see the halting tick unfused), fetching out of program bounds,
  /// or at a barrier CSR, halt or invalid instruction. kParked when
  /// the core is blocked at the fpss-sync CSR with every core-side
  /// hazard clear, so its whole tick is exactly {++cycles, ++stall_sync}
  /// while the FPU subsystem drains (the caller still owns the FPSS-side
  /// replay check). kTick otherwise: loads (issue and response writeback
  /// — fused cycles tick the hubs), stores, branches, ALU ops, offloads,
  /// every non-barrier CSR, and redirect bubbles all tick natively.
  FusedGate fused_gate(cycle_t now) const;

  /// Whether the last tick made progress (the fused executor's
  /// next_event shortcut; identical to next_event(now) == now).
  bool advanced_last_tick() const { return advanced_; }

  /// One fused parked cycle (caller established the kParked gate and
  /// that the FPSS is mid-FREP, i.e. not idle).
  void tick_parked_sync(cycle_t /*now*/) {
    ++stats_.cycles;
    advanced_ = false;
    self_wake_ = kCycleNever;
    ++stats_.stall_sync;
  }

  /// Batch credit for `count` consecutive parked cycles: the fused
  /// executor's parked span performs the core's per-cycle work — nothing
  /// but these counter increments — once at span exit. No other unit
  /// reads core state mid-span, so the seam-visible state is identical
  /// to `count` tick_parked_sync calls.
  void finish_parked_span(cycle_t count) {
    stats_.cycles += count;
    stats_.stall_sync += count;
    advanced_ = false;
    self_wake_ = kCycleNever;
  }

 private:
  bool xreg_busy(unsigned r, cycle_t now) const {
    return r != 0 && (load_pending_[r] || fpss_pending_[r] ||
                      busy_until_[r] > now);
  }

  /// A stall path blocked on register `r` records when its scoreboard
  /// timer expires (pending load/FPSS writebacks are external wake-ups
  /// and stay at kCycleNever).
  void note_reg_wait(unsigned r, cycle_t now) {
    if (busy_until_[r] > now && busy_until_[r] < self_wake_) {
      self_wake_ = busy_until_[r];
    }
  }

  /// Execute the instruction at pc_ (its pre-decoded record `d`) if all
  /// hazards clear; returns true if it issued.
  bool issue(const DecodedInst& d, cycle_t now);

  bool exec_csr(const isa::Inst& inst, cycle_t now);

  SnitchParams params_;
  const CompiledProgram& program_;
  Fpss& fpss_;
  ssr::Streamer& streamer_;
  ssr::PortClient lsu_;

  std::uint64_t xregs_[32] = {};
  cycle_t busy_until_[32] = {};
  bool load_pending_[32] = {};
  bool fpss_pending_[32] = {};

  addr_t pc_;
  bool halted_ = false;
  cycle_t stall_until_ = 0;  ///< branch penalty bubbles
  bool advanced_ = false;          ///< last tick issued or popped something
  cycle_t self_wake_ = kCycleNever;  ///< earliest internal stall expiry
  unsigned loads_outstanding_ = 0;
  std::uint64_t ssr_enable_csr_ = 0;

  BarrierHook barrier_;
  SnitchStats stats_;
  trace::Tracer trace_;
  bool in_barrier_wait_ = false;  ///< an open "barrier" trace slice
};

}  // namespace issr::core
