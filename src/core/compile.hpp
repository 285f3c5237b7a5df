// Core translation and the fused cycle executor. CompiledProgram is a
// one-time translation pass over an assembled isa::Program that fixes
// everything issue would otherwise derive each cycle: instruction
// classification, operand-usage flags, folded load/store access metadata,
// and each FP instruction's FPU-subsystem micro-op.
//
// The translation is immutable and shareable across simulators (the
// driver's asset cache stores one per program, keyed by program identity +
// engine provenance). Two units consume it:
//  - SnitchCore dispatches every instruction through its DecodedInst
//    record — the only way a core executes;
//  - Fpss issues each offloaded instruction from its pre-lowered
//    micro-op (FREP replay issues from rows the Fpss lowers itself from
//    the captured body).
//
// CompiledExec fuses whole core-complex cycles whenever the core is not
// at a seam (barrier CSR, halt): the memory and hub phases run exactly as
// in a per-cycle tick (so integer/FP loads and all streamer-config CSR
// traffic fuse too), the stream lanes bypass the port protocol for their
// own traffic, and the engine bursts through fused cycles without
// per-cycle horizon scans.
//
// Determinism bar: a fused cycle reproduces the per-cycle tick's state
// transitions exactly — same cycles, stats, stall buckets, traces,
// faults. tests/test_compiled_diff.cpp fuzzes fused runs against runs
// with a trace sink attached (which tick every cycle unfused) and against
// per-seed fingerprints.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/fpss.hpp"
#include "isa/inst.hpp"
#include "isa/program.hpp"
#include "trace/stall.hpp"

namespace issr::mem {
class BackingStore;
class IdealMemory;
class MemPort;
}  // namespace issr::mem

namespace issr::ssr {
class Lane;
}  // namespace issr::ssr

namespace issr::core {

class CoreComplex;
class SnitchCore;

/// Integer-load extension kinds, precomputed from the opcode (also packed
/// into core LSU request tags next to rd).
enum class LoadExt : std::uint8_t {
  kS8 = 0, kU8, kS16, kU16, kS32, kU32, k64,
};

/// Dispatch class of a pre-decoded instruction
/// (SnitchCore::issue).
enum class ExecClass : std::uint8_t {
  kFpss,    ///< offloaded to the FPU subsystem (incl. FREP setup)
  kAlu,     ///< integer ALU/mul/div/lui/auipc: write_rd(eval), pc += 4
  kBranch,  ///< conditional branch
  kJal,
  kJalr,
  kLoad,
  kStore,
  kCsr,     ///< Zicsr: hazard-checked, then exec_csr
  kHalt,    ///< ecall / ebreak
  kFence,
  kInvalid,  ///< Op::kInvalid (no program word decodes to it): asserts
};

/// Classification flags precomputed per instruction.
enum DecodedFlags : std::uint16_t {
  kDUsesRs1 = 1u << 0,   ///< issue reads/hazard-checks rs1
  kDUsesRs2 = 1u << 1,   ///< issue reads/hazard-checks rs2
  kDFpToInt = 1u << 2,   ///< FPSS op writing an integer rd
  kDFpssRs1 = 1u << 3,   ///< FPSS op capturing the rs1 value at issue
  kDFpssAddr = 1u << 4,  ///< FPSS op capturing rs1 + imm (fld/fsd)
  kDSyncCsr = 1u << 5,   ///< CSR op targeting the blocking fpss-sync CSR
  kDCsrImm = 1u << 6,    ///< immediate-form CSR (csrrwi/csrrsi/csrrci)
  kDBarrierCsr = 1u << 7,  ///< CSR op targeting the cluster barrier CSR
};

/// One pre-decoded instruction: the decoded fields plus everything the
/// per-cycle issue path would otherwise re-derive.
struct DecodedInst {
  isa::Inst inst;
  ExecClass cls = ExecClass::kInvalid;
  std::uint16_t flags = 0;
  std::uint8_t load_bytes = 0;            ///< access size for kLoad/kStore
  LoadExt load_ext = LoadExt::k64;        ///< writeback extension for kLoad
  std::uint8_t wb_latency_kind = 0;       ///< 0 none, 1 mul_latency, 2 div_latency
};

/// The immutable translation of one Program. Thread-safe to share
/// (const after construction); one per program in the driver asset cache.
class CompiledProgram {
 public:
  explicit CompiledProgram(const isa::Program& program);

  std::size_t size() const { return decoded_.size(); }

  const DecodedInst& decoded(addr_t pc) const {
    const std::size_t idx = (pc - isa::Program::kBaseAddr) / 4;
    assert(idx < decoded_.size() && (pc & 3) == 0);
    return decoded_[idx];
  }

  /// FPU-subsystem micro-op of the FP instruction at `pc` (a
  /// default-constructed one for integer instructions and FREP).
  const FpssMicroOp& mop(addr_t pc) const {
    const std::size_t idx = (pc - isa::Program::kBaseAddr) / 4;
    assert(idx < mops_.size() && (pc & 3) == 0);
    return mops_[idx];
  }

 private:
  std::vector<DecodedInst> decoded_;
  std::vector<FpssMicroOp> mops_;
};

/// Integer ALU result of a kAlu instruction (SnitchCore::issue). `pc`
/// feeds auipc.
std::uint64_t alu_eval(isa::Op op, std::uint64_t a, std::uint64_t b,
                       std::int64_t imm, addr_t pc);

/// Branch predicate of a kBranch instruction.
bool branch_taken(isa::Op op, std::uint64_t a, std::uint64_t b);

/// The fused cycle executor for a single-CC simulation on ideal memory:
/// whenever the core is not at a seam (barrier CSR, halt), one try_tick()
/// call performs the whole core-complex cycle — memory tick, hub routing,
/// real core and FPSS ticks (with a specialized parked-core path for the
/// sync-CSR + FREP-replay steady state), stream-lane ticks whose own
/// memory traffic bypasses the port protocol, and stall accounting —
/// skipping the per-unit horizon scans of the generic dispatch.
/// Every cycle where the preconditions fail returns false and the caller
/// runs the ordinary per-cycle tick; the fused tick itself reproduces its
/// state transitions exactly (see compile.cpp for the cycle-order
/// argument).
class CompiledExec {
 public:
  CompiledExec(CoreComplex& cc, mem::IdealMemory& mem);

  /// Burst through consecutive fused cycles starting at `now`: executes
  /// fused cycles [now, returned) and stops at the first seam, at the
  /// first no-progress cycle (the engine must run its
  /// horizon/watchdog scan), or at the cycle budget `limit`. One gate
  /// evaluation per cycle (SnitchCore::fused_gate + the FPSS replay
  /// check) picks between the generic fused cycle and, when both ports
  /// and all hubs are additionally drained, a parked tight loop — core
  /// blocked on the sync CSR, FPSS in FREP replay — that runs only the
  /// work that can change in that state and batches the core's counter
  /// increments at exit. Every executed cycle reproduces the per-cycle
  /// tick's state transitions exactly (see the cycle-order argument in
  /// compile.cpp). After the call, fused_advanced() reflects
  /// the last executed cycle (false after a no-progress cycle or when no
  /// cycle ran). Flattened: the per-cycle unit ticks are small and
  /// call-bound, and this loop is the simulation's hot path — inlining
  /// them here keeps the burst state in registers.
  [[gnu::flatten]] cycle_t fused_span(cycle_t now, cycle_t limit);

  /// Run one fused cycle if the preconditions hold (the engine's
  /// single-tick path, e.g. the fast-forward wait tick).
  bool try_tick(cycle_t now) { return fused_span(now, now + 1) != now; }

  /// Must be called before any unfused tick that follows fused ticks:
  /// materializes still-undelivered lane bypass requests onto the real
  /// ports and re-primes the stall accountant's snapshot (fused cycles
  /// classify directly and leave it stale).
  void before_unfused_tick();

  /// Post-run flush: materialize lane bypass requests so the caller's
  /// port drain serves them (a run can stop — quiescence, cycle limit —
  /// with the final write-stream store still in a bypass slot).
  void flush();

  /// Fast-forward bulk-replay hook (mirrors CcSim's after_replay).
  void after_replay();

  /// True iff the last tick was fused and made forward progress — the
  /// caller's next_event may then short-circuit to `now` (exactly what
  /// the full per-unit horizon scan would return). Conversely, a fused
  /// tick without progress leaves every per-unit hook exact, and the
  /// lane bypass slots provably empty, so the caller's horizon scan sees
  /// the complete machine state.
  bool fused_advanced() const { return fused_advanced_; }

 private:
  CoreComplex& cc_;
  mem::IdealMemory& mem_;
  SnitchCore& core_;
  Fpss& fpss_;
  ssr::Lane& ssr_lane_;
  ssr::Lane& issr_lane_;
  mem::MemPort& shared_port_;
  mem::MemPort& issr_port_;
  mem::BackingStore& store_;
  bool enabled_ = false;  ///< static gate (port topology + latency)
  bool snap_stale_ = false;
  bool fused_advanced_ = false;
};

}  // namespace issr::core
