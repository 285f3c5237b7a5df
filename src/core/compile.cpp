#include "core/compile.hpp"

#include <cassert>

#include "core/cc.hpp"
#include "core/fpss.hpp"
#include "core/fpu.hpp"
#include "core/snitch.hpp"
#include "isa/csr_map.hpp"
#include "mem/ideal_mem.hpp"
#include "ssr/streamer.hpp"

namespace issr::core {

using isa::Inst;
using isa::Issue;
using isa::Op;
using isa::RegFile;

namespace {

ExecClass exec_class(Issue k) {
  switch (k) {
    case Issue::kInvalid: return ExecClass::kInvalid;
    case Issue::kAlu: case Issue::kMul: case Issue::kDiv:
      return ExecClass::kAlu;
    case Issue::kBranch: return ExecClass::kBranch;
    case Issue::kJal: return ExecClass::kJal;
    case Issue::kJalr: return ExecClass::kJalr;
    case Issue::kLoad: return ExecClass::kLoad;
    case Issue::kStore: return ExecClass::kStore;
    case Issue::kCsr: return ExecClass::kCsr;
    case Issue::kHalt: return ExecClass::kHalt;
    case Issue::kFence: return ExecClass::kFence;
    default: return ExecClass::kFpss;
  }
}

LoadExt load_ext(const isa::OpInfo& r) {
  switch (r.mem_bytes) {
    case 1: return r.mem_zext ? LoadExt::kU8 : LoadExt::kS8;
    case 2: return r.mem_zext ? LoadExt::kU16 : LoadExt::kS16;
    case 4: return r.mem_zext ? LoadExt::kU32 : LoadExt::kS32;
    default: return LoadExt::k64;
  }
}

DecodedInst decode_one(const Inst& inst) {
  const isa::OpInfo& r = isa::op_info(inst.op);
  DecodedInst d;
  d.inst = inst;
  d.cls = exec_class(r.issue);

  if (d.cls == ExecClass::kFpss) {
    // The integer operand an offload captures: rs1, plus imm for a
    // memory access (fld/fsd).
    if (r.rs1 == RegFile::kX) d.flags |= kDFpssRs1;
    if (r.mem_bytes != 0) d.flags |= kDFpssAddr;
    if (isa::op_fp_to_int(inst.op)) d.flags |= kDFpToInt;
    return d;
  }

  // Which source registers issue reads and hazard-checks.
  if (r.rs1 == RegFile::kX) d.flags |= kDUsesRs1;
  if (r.rs2 == RegFile::kX) d.flags |= kDUsesRs2;
  if (r.issue == Issue::kMul) d.wb_latency_kind = 1;
  if (r.issue == Issue::kDiv) d.wb_latency_kind = 2;
  if (d.cls == ExecClass::kLoad || d.cls == ExecClass::kStore) {
    d.load_bytes = r.mem_bytes;
  }
  if (d.cls == ExecClass::kLoad) d.load_ext = load_ext(r);
  if (d.cls == ExecClass::kCsr) {
    if (r.format == isa::Format::kCsrImm) d.flags |= kDCsrImm;
    if (inst.csr == isa::kCsrFpssSync) d.flags |= kDSyncCsr;
    if (inst.csr == isa::kCsrBarrier) d.flags |= kDBarrierCsr;
  }
  return d;
}

}  // namespace

CompiledProgram::CompiledProgram(const isa::Program& program) {
  const std::vector<Inst>& insts = program.insts();
  decoded_.reserve(insts.size());
  mops_.reserve(insts.size());
  for (const Inst& inst : insts) {
    decoded_.push_back(decode_one(inst));
    mops_.push_back(decoded_.back().cls == ExecClass::kFpss &&
                            inst.op != Op::kFrep
                        ? lower_fpss_op(inst)
                        : FpssMicroOp{});
  }
}

std::uint64_t alu_eval(Op op, std::uint64_t a, std::uint64_t b,
                       std::int64_t imm, addr_t pc) {
  switch (op) {
    case Op::kLui: return static_cast<std::uint64_t>(imm);
    case Op::kAuipc: return pc + static_cast<std::uint64_t>(imm);
    case Op::kAddi: return a + static_cast<std::uint64_t>(imm);
    case Op::kSlti: return static_cast<std::int64_t>(a) < imm ? 1 : 0;
    case Op::kSltiu: return a < static_cast<std::uint64_t>(imm) ? 1 : 0;
    case Op::kXori: return a ^ static_cast<std::uint64_t>(imm);
    case Op::kOri: return a | static_cast<std::uint64_t>(imm);
    case Op::kAndi: return a & static_cast<std::uint64_t>(imm);
    case Op::kSlli: return a << (imm & 63);
    case Op::kSrli: return a >> (imm & 63);
    case Op::kSrai:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                        (imm & 63));
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kSll: return a << (b & 63);
    case Op::kSlt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? 1
                                                                         : 0;
    case Op::kSltu: return a < b ? 1 : 0;
    case Op::kXor: return a ^ b;
    case Op::kSrl: return a >> (b & 63);
    case Op::kSra:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                        (b & 63));
    case Op::kOr: return a | b;
    case Op::kAnd: return a & b;
    case Op::kMul: return a * b;
    case Op::kMulh:
      return static_cast<std::uint64_t>(
          (static_cast<__int128>(static_cast<std::int64_t>(a)) *
           static_cast<__int128>(static_cast<std::int64_t>(b))) >>
          64);
    case Op::kDiv:
      return b == 0 ? ~0ull
                    : static_cast<std::uint64_t>(static_cast<std::int64_t>(a) /
                                                 static_cast<std::int64_t>(b));
    case Op::kDivu: return b == 0 ? ~0ull : a / b;
    case Op::kRem:
      return b == 0 ? a
                    : static_cast<std::uint64_t>(static_cast<std::int64_t>(a) %
                                                 static_cast<std::int64_t>(b));
    case Op::kRemu: return b == 0 ? a : a % b;
    default:
      assert(false && "non-ALU opcode in alu_eval");
      return 0;
  }
}

bool branch_taken(Op op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
    case Op::kBge:
      return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default:
      assert(false && "non-branch opcode in branch_taken");
      return false;
  }
}

// ---------------------------------------------------------------------------
// CompiledExec
//
// Exactness argument for the fused cycle, phase by phase against the
// per-cycle order (IdealMemory::tick; then CoreComplex::tick = hub
// ticks, streamer.begin_cycle, core.tick, fpss.tick, streamer.tick,
// account):
//  - memory/hubs: both run for real, at the per-cycle point in the
//    cycle, so every response that matures on a port — core/FP loads,
//    and lane requests materialized at a seam — is routed to its
//    client's queue in the identical cycle and popped by the unit's
//    real tick exactly as in a per-cycle run. Lane bypass traffic never
//    touches the ports, so the hubs cannot observe it.
//  - core/fpss: the real tick() runs, so their transitions are identical
//    by construction — including integer/FP load issue and response
//    writeback, streamer-config and sync CSR accesses, and the config
//    retry stall. Only the barrier CSR is excluded (its callback and
//    stall_barrier accounting are cluster-scope seams). The specialized
//    tick_parked_sync replaces the core tick only in the sync-CSR +
//    FREP-replay steady state, where the real tick is exactly
//    {++cycles, advanced_ = false, self_wake_ = kCycleNever,
//    ++stall_sync} (fpss_.idle() is false while a FREP is active).
//    Requests these units issue (core/FP loads and stores) go through
//    the real port and are served by the next memory tick as usual.
//  - lanes: the lane's own traffic skips the port protocol through a
//    one-slot bypass (ssr/lane.cpp). Issue keeps the real-port mux gate,
//    so contention with a core/FP store on the shared port defers the
//    lane exactly as a per-cycle tick does; the store-gated and bypass-filled
//    cases cannot overlap, so the single MemPort slot semantics are
//    preserved. Delivery happens at the next fused tick, right after the
//    memory tick that would have served the request — the same
//    BackingStore access order (port 0 before port 1, prior-cycle stores
//    before this cycle's reads) and, at latency <= 1 (the enable gate),
//    the same response cycle. At a fused-to-unfused seam or run end,
//    an undelivered request is materialized onto the real port, where
//    the next memory tick serves it and the hub routes it — identical
//    timing again. A bypass slot can only be full if the lane advanced,
//    which forces fused_advanced_, so the engine never consults the
//    memory horizon while a request is hidden in a slot.
//  - account: with no port arbitration (IdealMemory never calls
//    note_stalled → port_conflict statically false) and no NoC
//    (single-CC), the full CycleObservation is reconstructed from the
//    same counter deltas account() would diff, and classified by the
//    same trace::classify. The accountant's snapshot is left stale
//    across fused stretches and re-primed before the next unfused
//    tick (resync_account), which is exact because fused cycles classify
//    from their own deltas.
// tests/test_compiled_diff.cpp fuzzes fused runs against unfused (traced)
// runs end to end.
// ---------------------------------------------------------------------------

CompiledExec::CompiledExec(CoreComplex& cc, mem::IdealMemory& mem)
    : cc_(cc),
      mem_(mem),
      core_(cc.core()),
      fpss_(cc.fpss()),
      ssr_lane_(cc.streamer().lane(ssr::Streamer::kSsrLane)),
      issr_lane_(cc.streamer().lane(ssr::Streamer::kIssrLane)),
      shared_port_(mem.port(0)),
      issr_port_(mem.port(1)),
      store_(mem.store()) {
  enabled_ = mem.num_ports() == 2 &&
             !issr_lane_.params().dedicated_idx_port && mem.latency() <= 1;
}
cycle_t CompiledExec::fused_span(cycle_t now, cycle_t limit) {
  fused_advanced_ = false;
  if (!enabled_ || now >= limit) return now;

  // Snapshot of the counters the stall classification diffs, loaded once
  // and rolled forward after each fused cycle (no unit outside this loop
  // can move them mid-burst). The core's counters cannot move in a
  // parked cycle (its whole tick is ++cycles, ++stall_sync) and are
  // re-sampled fresh per generic cycle; stall_barrier cannot move in any
  // fused cycle (the barrier CSR never fuses).
  const FpssStats& fs = fpss_.stats();
  const SnitchStats& cs = core_.stats();
  std::uint64_t fp0 = fs.fp_compute;
  std::uint64_t fi0 = fs.issued;
  std::uint64_t st0 = fs.stall_stream;
  std::uint64_t sv0 = ssr_lane_.stats().reg_starved_cycles;
  std::uint64_t iv0 = issr_lane_.stats().reg_starved_cycles;

  cycle_t n = now;
  while (n < limit) {
    const FusedGate g = core_.fused_gate(n);
    if (g == FusedGate::kSeam) break;
    // Quiet = both ports fully drained (no pending request, nothing in
    // flight or matured) and no routed-but-unpopped hub responses. The
    // memory tick and the hub ticks are then provably no-ops (an idle
    // port neither matures nor serves anything) and are skipped; the
    // ISSR lane — sole client of its exclusive port, issuing into its
    // bypass slot while fused — additionally skips the response-drain
    // and port-mux-gate phases, which quietness makes vacuous. The
    // shared port can gain a pending core/FP-LSU request mid-cycle, so
    // the SSR lane always keeps the full fused tick with its mux gate.
    const bool quiet = shared_port_.next_event() == kCycleNever &&
                       issr_port_.next_event() == kCycleNever &&
                       !cc_.hubs_queued();
    const bool parked = g == FusedGate::kParked && fpss_.fused_replay_ready();
    if (parked && quiet) {
      // Parked tight loop: the core is frozen (the parked tick touches
      // nothing the gate reads) and a parked cycle generates no port
      // traffic at all — the FPSS replay cannot contain fld/fsd and the
      // lanes issue into their bypass slots — so quietness is invariant
      // and only the FPSS replay, the lane ticks, and the stall
      // classification run per cycle. The core's per-cycle work is
      // batched at exit. The core stays parked for exactly as long as
      // fused_replay_ready holds: every FPSS event that could unpark it
      // — replay completing, an integer writeback queued by a replayed
      // comparison / fp-to-int op — drops fused_replay_ready first.
      const cycle_t p0 = n;
      bool progressed;
      do {
        // begin_cycle before the FPSS tick, as per cycle: a replayed
        // op's register-file pop can complete a job and start its shadow
        // successor, which stamps lane trace events with now_.
        ssr_lane_.begin_cycle(n);
        issr_lane_.begin_cycle(n);
        fpss_.tick(n);
        ssr_lane_.tick_parked(n, shared_port_, store_);
        issr_lane_.tick_parked(n, issr_port_, store_);

        trace::CycleObservation o;
        o.fp_compute = fs.fp_compute != fp0;
        o.issued = fs.issued != fi0;
        o.stream_stall = fs.stall_stream != st0;
        o.sync_stall = true;
        if (o.stream_stall) {
          const ssr::Lane* lane = nullptr;
          if (ssr_lane_.stats().reg_starved_cycles != sv0) {
            lane = &ssr_lane_;
          } else if (issr_lane_.stats().reg_starved_cycles != iv0) {
            lane = &issr_lane_;
          }
          o.idx_serializer =
              lane &&
              lane->last_starve_cause() == ssr::Lane::StarveCause::kSerializer;
        }
        cc_.credit_fused_cycle(trace::classify(o));
        fp0 = fs.fp_compute;
        fi0 = fs.issued;
        st0 = fs.stall_stream;
        sv0 = ssr_lane_.stats().reg_starved_cycles;
        iv0 = issr_lane_.stats().reg_starved_cycles;
        ++n;
        progressed = fpss_.advanced_last_tick() ||
                     ssr_lane_.advanced_last_tick() ||
                     issr_lane_.advanced_last_tick();
      } while (progressed && n < limit && fpss_.fused_replay_ready());
      core_.finish_parked_span(n - p0);
      snap_stale_ = true;
      if (!progressed) return n;  // engine horizon/watchdog scan
      continue;  // left the parked state (or hit the budget)
    }

    // Generic fused cycle — exactly the per-cycle tick order.
    std::uint64_t ci0 = 0;
    std::uint64_t sy0 = 0;
    if (!parked) {
      ci0 = cs.issued;
      sy0 = cs.stall_sync;
    }
    if (!quiet) {
      mem_.tick(n);
      cc_.tick_hubs();
    }
    cc_.streamer().begin_cycle(n);
    if (parked) {
      core_.tick_parked_sync(n);
    } else {
      core_.tick(n);
    }
    fpss_.tick(n);
    ssr_lane_.tick_fused(n, shared_port_, store_);
    if (quiet) {
      issr_lane_.tick_parked(n, issr_port_, store_);
    } else {
      issr_lane_.tick_fused(n, issr_port_, store_);
    }

    // Stall attribution: rebuild the observation account() would make.
    // noc_stalled and port_conflict are statically false here (single
    // CC; IdealMemory never loses arbitration).
    trace::CycleObservation o;
    o.fp_compute = fs.fp_compute != fp0;
    o.issued = fs.issued != fi0 || (!parked && cs.issued != ci0);
    o.stream_stall = fs.stall_stream != st0;
    o.sync_stall = parked || cs.stall_sync != sy0;
    o.halted = !parked && core_.halted();
    if (o.stream_stall) {
      const ssr::Lane* lane = nullptr;
      if (ssr_lane_.stats().reg_starved_cycles != sv0) {
        lane = &ssr_lane_;
      } else if (issr_lane_.stats().reg_starved_cycles != iv0) {
        lane = &issr_lane_;
      }
      o.idx_serializer =
          lane &&
          lane->last_starve_cause() == ssr::Lane::StarveCause::kSerializer;
    }
    cc_.credit_fused_cycle(trace::classify(o));
    fp0 = fs.fp_compute;
    fi0 = fs.issued;
    st0 = fs.stall_stream;
    sv0 = ssr_lane_.stats().reg_starved_cycles;
    iv0 = issr_lane_.stats().reg_starved_cycles;
    snap_stale_ = true;
    ++n;
    if (!(core_.advanced_last_tick() || fpss_.advanced_last_tick() ||
          ssr_lane_.advanced_last_tick() || issr_lane_.advanced_last_tick())) {
      return n;  // no-progress cycle: engine horizon/watchdog scan
    }
  }
  // Seam or budget: every executed cycle made progress (a no-progress
  // cycle returned above), so fused_advanced() is true iff any ran.
  fused_advanced_ = n != now;
  return n;
}

void CompiledExec::before_unfused_tick() {
  fused_advanced_ = false;
  ssr_lane_.materialize_bypass();
  issr_lane_.materialize_bypass();
  if (snap_stale_) {
    cc_.resync_account();
    snap_stale_ = false;
  }
}

void CompiledExec::flush() {
  ssr_lane_.materialize_bypass();
  issr_lane_.materialize_bypass();
}

}  // namespace issr::core
