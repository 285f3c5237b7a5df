// Snitch FPU subsystem (Fig. 3 "FPU Subsystem"): receives offloaded FP
// instructions from the integer core through a queue (the decoupling that
// gives Snitch its pseudo-dual-issue behaviour, [6]), sequences them —
// including FREP hardware loops with register staggering — and executes
// them on a pipelined FPU, an FP load/store unit sharing the core's TCDM
// port, and the SSR/ISSR stream register file.
//
// Issue rules (one instruction per cycle):
//  - FP source registers with stream semantics pop their lane FIFO; the
//    instruction stalls until every stream source has data and a stream
//    destination has FIFO space (this stall is what transfers the ISSR
//    port-multiplexing ceiling onto FPU utilization);
//  - non-stream FP sources/destinations respect a scoreboard tracking
//    pipeline writebacks (RAW/WAW);
//  - fld/fsd issue through the FP LSU when the shared port is free;
//  - fdiv/fsqrt block the single iterative unit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring_queue.hpp"
#include "core/fpu.hpp"
#include "isa/inst.hpp"
#include "ssr/port_hub.hpp"
#include "ssr/streamer.hpp"
#include "trace/trace.hpp"

namespace issr::core {

struct FpssParams {
  FpuParams fpu;
  std::size_t offload_queue_depth = 8;
  unsigned lsu_max_outstanding = 4;
};

struct FpssStats {
  std::uint64_t issued = 0;       ///< FP-subsystem instructions issued
  std::uint64_t fp_compute = 0;   ///< FPU arithmetic issues
  std::uint64_t fmadd = 0;        ///< FMA-class issues (paper's useful work)
  std::uint64_t fmul = 0;         ///< multiplies (the CsrMV row-head MACs)
  std::uint64_t flops = 0;        ///< double-precision flop count
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t stall_stream = 0;  ///< cycles stalled on stream FIFOs
  std::uint64_t stall_raw = 0;     ///< cycles stalled on FP scoreboard
  std::uint64_t stall_mem = 0;     ///< cycles stalled on LSU/port
  std::uint64_t idle_cycles = 0;   ///< nothing to issue

  bool operator==(const FpssStats&) const = default;
};

/// How the FPU subsystem executes an instruction; fixed by the opcode.
enum class FpssKind : std::uint8_t {
  kCompute,  ///< FP -> FP datapath op
  kLoad,     ///< fld: FP LSU read into an FP register
  kStore,    ///< fsd: FP LSU write of rs2
  kFromInt,  ///< fcvt.d.w[u], fmv.d.x: consume the captured integer operand
  kToInt,    ///< compares, fcvt.w[u].d, fmv.x.d: integer writeback
};

/// Classification flags of a micro-op.
enum MicroOpFlags : std::uint8_t {
  kMWritesFp = 1u << 0,    ///< writes an FP rd (register or stream)
  kMFpCompute = 1u << 1,   ///< counts as FPU arithmetic (utilization)
  kMFmadd = 1u << 2,
  kMFmul = 1u << 3,
  kMIterative = 1u << 4,   ///< blocks the iterative divide/sqrt unit
};

/// One FP instruction as the sequencer issues it: the instruction (FREP
/// register staggering already applied), its FP source registers in
/// operand order, and its classification. Everything issue needs is fixed
/// here, so an issue attempt derives nothing from the opcode.
struct FpssMicroOp {
  isa::Inst inst;
  std::uint8_t srcs[3] = {0, 0, 0};
  std::uint8_t n_src = 0;
  FpssKind kind = FpssKind::kCompute;
  std::uint8_t mflags = 0;
  std::uint8_t flops = 0;
};

/// Lower one offloadable instruction other than FREP to its micro-op.
FpssMicroOp lower_fpss_op(const isa::Inst& inst);

/// One offloaded instruction plus the integer operand captured at the
/// core's issue stage (effective address for fld/fsd, rs1 value for
/// int->FP converts, iteration count for FREP).
struct OffloadEntry {
  isa::Inst inst;
  std::uint64_t int_operand = 0;
  /// pc of the instruction at offload: the key of its micro-op in the
  /// core's translation (CompiledProgram::mop).
  addr_t pc = 0;
};

class CompiledProgram;

class Fpss {
 public:
  /// `program` is the translation the offloading core runs: an entry
  /// then issues the micro-op lowered for its pc. Without one (a bare
  /// subsystem fed by hand), each entry is lowered when it reaches the
  /// head of the queue.
  Fpss(const FpssParams& params, ssr::Streamer& streamer,
       ssr::PortClient lsu_port, const CompiledProgram* program = nullptr);

  // --- Core-side interface -------------------------------------------------
  bool can_offload() const { return queue_.size() < params_.offload_queue_depth; }
  void offload(const OffloadEntry& entry);

  /// True iff every offloaded instruction has fully completed (queue and
  /// FREP drained, pipeline writebacks done, no outstanding FP loads).
  bool idle(cycle_t now) const;

  /// Pop a matured FP->int writeback destined for the integer regfile.
  struct IntWriteback {
    std::uint8_t rd;
    std::uint64_t value;
  };
  std::optional<IntWriteback> pop_int_writeback(cycle_t now);

  // --- Simulation ----------------------------------------------------------
  void tick(cycle_t now);

  /// Watchdog horizon: earliest future cycle at which this subsystem's
  /// tick can differ from the one just performed, or at which idle(now)
  /// / pop_int_writeback(now) change answers (both are sampled by the
  /// core and the quiescence check every cycle). External wake-ups (lane
  /// FIFO data, port grants, memory responses) are covered by the other
  /// units' hooks.
  cycle_t next_event(cycle_t now) const {
    if (advanced_) return now;
    cycle_t e = self_wake_;
    if (!int_wb_.empty() && int_wb_.front().ready_at < e) {
      e = int_wb_.front().ready_at;
    }
    // Pipeline-drain completion flips idle() (and with it the core's
    // fpss-sync CSR stall and CC quiescence) at last_completion_. A drain
    // finishing exactly at `now` is still a future event: the core
    // samples idle(now) in the tick it has not performed yet.
    if (queue_.empty() && !frep_.active && lsu_outstanding_ == 0 &&
        int_wb_.empty() && last_completion_ >= now && last_completion_ < e) {
      e = last_completion_;
    }
    return e;
  }

  // --- State access (tests, result extraction) -----------------------------
  double freg(unsigned idx) const { return fregs_[idx]; }
  void set_freg(unsigned idx, double v) { fregs_[idx] = v; }

  const FpssStats& stats() const { return stats_; }

  /// Timeline hook: FREP hardware-loop slices (trace/).
  trace::Tracer& tracer() { return trace_; }

  // --- Fused-executor seams (core/compile.hpp) -----------------------------
  /// True iff the sequencer is in steady-state FREP replay with no
  /// outstanding FP memory traffic or integer writebacks — the fused
  /// executor's precondition (its tick must see this subsystem change
  /// only through the replay branch).
  bool fused_replay_ready() const {
    return frep_.active && !frep_.capturing && lsu_outstanding_ == 0 &&
           int_wb_.empty();
  }

  /// Whether the last tick made progress (the fused executor's next_event
  /// shortcut; identical to next_event(now) == now under its
  /// preconditions).
  bool advanced_last_tick() const { return advanced_; }

 private:
  struct FrepState {
    bool active = false;
    bool capturing = false;
    std::vector<isa::Inst> buffer;  ///< captured body, offload order
    unsigned n_insts = 0;
    std::uint64_t total_iters = 0;
    std::uint64_t iter = 0;  ///< current iteration (0-based)
    unsigned pos = 0;        ///< position within the body
    unsigned stagger_max = 0;
    unsigned stagger_mask = 0;
  };

  bool scoreboard_busy(unsigned reg, cycle_t now) const {
    return load_pending_[reg] || busy_until_[reg] > now;
  }

  /// A stall path blocked on FP register `reg` records when its pipeline
  /// timer expires (pending loads are external wake-ups).
  void note_fp_wait(unsigned reg, cycle_t now) {
    if (busy_until_[reg] > now && busy_until_[reg] < self_wake_) {
      self_wake_ = busy_until_[reg];
    }
  }

  /// Issue `m` this cycle if its operands, the FP LSU and the iterative
  /// unit allow; returns true on success. `int_operand` is the value the
  /// core captured at offload (0 in FREP replay).
  bool issue(const FpssMicroOp& m, std::uint64_t int_operand, cycle_t now);

  /// Capture end: lower the captured body into the replay rows and point
  /// replay at iteration 1's row.
  void arm_replay();

  FpssParams params_;
  ssr::Streamer& streamer_;
  ssr::PortClient lsu_;

  double fregs_[32] = {};
  cycle_t busy_until_[32] = {};
  bool load_pending_[32] = {};
  cycle_t iterative_busy_until_ = 0;
  cycle_t last_completion_ = 0;  ///< max over scheduled writebacks

  const CompiledProgram* program_;
  RingQueue<OffloadEntry> queue_;
  FrepState frep_;
  // FREP replay table: `period` rows of n_insts micro-ops, row r holding
  // the captured body with stagger offset r applied (period = stagger_max
  // + 1 when staggering, else 1).
  std::vector<FpssMicroOp> rows_;
  /// Row of the current iteration, rows_ + (iter % period) * n_insts,
  /// advanced at each iteration wrap.
  const FpssMicroOp* frep_row_ = nullptr;
  unsigned lsu_outstanding_ = 0;
  bool advanced_ = false;            ///< last tick issued or popped
  cycle_t self_wake_ = kCycleNever;  ///< earliest internal stall expiry

  struct PendingIntWb {
    cycle_t ready_at;
    std::uint8_t rd;
    std::uint64_t value;
  };
  RingQueue<PendingIntWb> int_wb_;

  FpssStats stats_;
  trace::Tracer trace_;
};

}  // namespace issr::core
