#include "core/snitch.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitutil.hpp"
#include "core/compile.hpp"

namespace issr::core {

using isa::Inst;
using isa::Op;

namespace {

std::uint32_t load_tag(unsigned rd, LoadExt ext) {
  return static_cast<std::uint32_t>(rd) |
         (static_cast<std::uint32_t>(ext) << 5);
}

std::uint64_t extend_load(std::uint64_t raw, LoadExt ext) {
  switch (ext) {
    case LoadExt::kS8: return static_cast<std::uint64_t>(sign_extend(raw, 8));
    case LoadExt::kU8: return raw & 0xffull;
    case LoadExt::kS16: return static_cast<std::uint64_t>(sign_extend(raw, 16));
    case LoadExt::kU16: return raw & 0xffffull;
    case LoadExt::kS32: return static_cast<std::uint64_t>(sign_extend(raw, 32));
    case LoadExt::kU32: return raw & 0xffffffffull;
    case LoadExt::k64: return raw;
  }
  return raw;
}

}  // namespace

SnitchCore::SnitchCore(const SnitchParams& params,
                       const CompiledProgram& program, Fpss& fpss,
                       ssr::Streamer& streamer, ssr::PortClient lsu_port)
    : params_(params),
      program_(program),
      fpss_(fpss),
      streamer_(streamer),
      lsu_(lsu_port),
      pc_(isa::Program::kBaseAddr) {}

void SnitchCore::tick(cycle_t now) {
  if (halted_) return;
  ++stats_.cycles;
  advanced_ = false;
  self_wake_ = kCycleNever;

  // 1. Load writebacks.
  mem::MemRsp rsp;
  while (lsu_.pop_response(rsp)) {
    const unsigned rd = rsp.id & 31;
    const auto ext = static_cast<LoadExt>(rsp.id >> 5);
    assert(load_pending_[rd]);
    load_pending_[rd] = false;
    if (rd != 0) xregs_[rd] = extend_load(rsp.rdata, ext);
    assert(loads_outstanding_ > 0);
    --loads_outstanding_;
    advanced_ = true;
  }

  // 2. FPU-subsystem integer writebacks (fmv.x.d, comparisons, ...).
  while (auto wb = fpss_.pop_int_writeback(now)) {
    assert(fpss_pending_[wb->rd]);
    fpss_pending_[wb->rd] = false;
    if (wb->rd != 0) xregs_[wb->rd] = wb->value;
    advanced_ = true;
  }

  // 3. Issue.
  if (stall_until_ > now) {  // branch/jump redirect bubbles
    self_wake_ = std::min(self_wake_, stall_until_);
    return;
  }
  if (issue(program_.decoded(pc_), now)) {
    ++stats_.issued;
    advanced_ = true;
  }
}

bool SnitchCore::issue(const DecodedInst& d, cycle_t now) {
  const Inst& inst = d.inst;
  switch (d.cls) {
    case ExecClass::kFpss: {
      std::uint64_t int_operand = 0;
      if (d.flags & kDFpssRs1) {
        if (xreg_busy(inst.rs1, now)) {
          note_reg_wait(inst.rs1, now);
          ++stats_.stall_raw;
          return false;
        }
        int_operand = xregs_[inst.rs1];
        if (d.flags & kDFpssAddr) {
          int_operand +=
              static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));
        }
      }
      if ((d.flags & kDFpToInt) && xreg_busy(inst.rd, now)) {
        note_reg_wait(inst.rd, now);
        ++stats_.stall_raw;
        return false;
      }
      if (!fpss_.can_offload()) {
        ++stats_.stall_offload;
        return false;
      }
      if ((d.flags & kDFpToInt) && inst.rd != 0) fpss_pending_[inst.rd] = true;
      fpss_.offload({inst, int_operand, pc_});
      ++stats_.offloads;
      pc_ += 4;
      return true;
    }
    case ExecClass::kAlu: {
      if ((d.flags & kDUsesRs1) && xreg_busy(inst.rs1, now)) {
        note_reg_wait(inst.rs1, now);
        ++stats_.stall_raw;
        return false;
      }
      if ((d.flags & kDUsesRs2) && xreg_busy(inst.rs2, now)) {
        note_reg_wait(inst.rs2, now);
        ++stats_.stall_raw;
        return false;
      }
      set_xreg(inst.rd,
               alu_eval(inst.op, xregs_[inst.rs1], xregs_[inst.rs2],
                        static_cast<std::int64_t>(inst.imm), pc_));
      if (d.wb_latency_kind != 0 && inst.rd != 0) {
        busy_until_[inst.rd] =
            now + (d.wb_latency_kind == 1 ? params_.mul_latency
                                          : params_.div_latency);
      }
      pc_ += 4;
      return true;
    }
    case ExecClass::kBranch: {
      if (xreg_busy(inst.rs1, now)) {
        note_reg_wait(inst.rs1, now);
        ++stats_.stall_raw;
        return false;
      }
      if (xreg_busy(inst.rs2, now)) {
        note_reg_wait(inst.rs2, now);
        ++stats_.stall_raw;
        return false;
      }
      ++stats_.branches;
      if (branch_taken(inst.op, xregs_[inst.rs1], xregs_[inst.rs2])) {
        ++stats_.taken_branches;
        pc_ += static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));
        if (params_.branch_penalty > 0) {
          stall_until_ = now + 1 + params_.branch_penalty;
        }
      } else {
        pc_ += 4;
      }
      return true;
    }
    case ExecClass::kJal: {
      set_xreg(inst.rd, pc_ + 4);
      pc_ += static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));
      stall_until_ = now + 1 + params_.branch_penalty;
      ++stats_.branches;
      ++stats_.taken_branches;
      return true;
    }
    case ExecClass::kJalr: {
      if (xreg_busy(inst.rs1, now)) {
        note_reg_wait(inst.rs1, now);
        ++stats_.stall_raw;
        return false;
      }
      const addr_t target =
          (xregs_[inst.rs1] +
           static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm))) &
          ~1ull;
      set_xreg(inst.rd, pc_ + 4);
      pc_ = target;
      stall_until_ = now + 1 + params_.branch_penalty;
      ++stats_.branches;
      ++stats_.taken_branches;
      return true;
    }
    case ExecClass::kLoad: {
      if (xreg_busy(inst.rs1, now)) {
        note_reg_wait(inst.rs1, now);
        ++stats_.stall_raw;
        return false;
      }
      if (loads_outstanding_ >= params_.max_outstanding_loads ||
          xreg_busy(inst.rd, now) || !lsu_.can_request()) {
        note_reg_wait(inst.rd, now);
        ++stats_.stall_mem;
        return false;
      }
      mem::MemReq req;
      req.addr = xregs_[inst.rs1] +
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));
      req.bytes = d.load_bytes;
      lsu_.request(req, load_tag(inst.rd, d.load_ext));
      if (inst.rd != 0) load_pending_[inst.rd] = true;
      ++loads_outstanding_;
      ++stats_.loads;
      pc_ += 4;
      return true;
    }
    case ExecClass::kStore: {
      if (xreg_busy(inst.rs1, now)) {
        note_reg_wait(inst.rs1, now);
        ++stats_.stall_raw;
        return false;
      }
      if (xreg_busy(inst.rs2, now)) {
        note_reg_wait(inst.rs2, now);
        ++stats_.stall_raw;
        return false;
      }
      if (!lsu_.can_request()) {
        ++stats_.stall_mem;
        return false;
      }
      mem::MemReq req;
      req.addr = xregs_[inst.rs1] +
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));
      req.is_write = true;
      req.wdata = xregs_[inst.rs2];
      req.bytes = d.load_bytes;
      lsu_.request(req, 0);
      ++stats_.stores;
      pc_ += 4;
      return true;
    }
    case ExecClass::kCsr:
      return exec_csr(inst, now);
    case ExecClass::kHalt:
      halted_ = true;
      trace_.instant(now, "halt", pc_);
      pc_ += 4;
      return true;
    case ExecClass::kFence:
      pc_ += 4;
      return true;
    case ExecClass::kInvalid:
      break;
  }
  assert(false && "invalid instruction");
  return false;
}

FusedGate SnitchCore::fused_gate(cycle_t now) const {
  // Outstanding loads do not force a seam: fused cycles tick the hubs at
  // the per-cycle point, so the response routes and writes back through
  // the real tick() exactly as unfused. Only halt (the engine must see
  // the halting tick unfused so the burst stops at done()), the barrier
  // CSR (its callback and stall_barrier accounting live outside the fused
  // observation), and invalid instructions leave the cycle unfused.
  if (halted_) return FusedGate::kSeam;
  if (stall_until_ > now) return FusedGate::kTick;  // redirect bubble
  const std::size_t idx = (pc_ - isa::Program::kBaseAddr) / 4;
  if (idx >= program_.size()) return FusedGate::kSeam;  // oob fetch: traps
  const DecodedInst& d = program_.decoded(pc_);
  switch (d.cls) {
    case ExecClass::kAlu:
    case ExecClass::kBranch:
    case ExecClass::kJal:
    case ExecClass::kJalr:
    case ExecClass::kLoad:
    case ExecClass::kStore:
    case ExecClass::kFence:
    case ExecClass::kFpss:
      return FusedGate::kTick;
    case ExecClass::kCsr:
      if (d.flags & kDBarrierCsr) return FusedGate::kSeam;
      // Parked: blocked at the fpss-sync CSR with every core-side hazard
      // clear — the tick cannot issue, pop, or observe anything until the
      // FPU subsystem drains.
      if ((d.flags & kDSyncCsr) && loads_outstanding_ == 0 &&
          ((d.flags & kDCsrImm) || !xreg_busy(d.inst.rs1, now))) {
        return FusedGate::kParked;
      }
      return FusedGate::kTick;
    case ExecClass::kHalt:
    case ExecClass::kInvalid:
      return FusedGate::kSeam;
  }
  return FusedGate::kSeam;
}

bool SnitchCore::exec_csr(const Inst& inst, cycle_t now) {
  const bool imm_form = inst.op == Op::kCsrrwi || inst.op == Op::kCsrrsi ||
                        inst.op == Op::kCsrrci;
  if (!imm_form && xreg_busy(inst.rs1, now)) {
    note_reg_wait(inst.rs1, now);
    ++stats_.stall_raw;
    return false;
  }
  const std::uint64_t operand =
      imm_form ? static_cast<std::uint64_t>(inst.imm) : xregs_[inst.rs1];
  const bool is_write_op = inst.op == Op::kCsrrw || inst.op == Op::kCsrrwi;
  const bool is_set_op = inst.op == Op::kCsrrs || inst.op == Op::kCsrrsi;
  const std::uint16_t csr = inst.csr;
  std::uint64_t old_value = 0;

  if (csr == isa::kCsrCycle) {
    old_value = now;
  } else if (csr == isa::kCsrMhartid) {
    old_value = params_.hartid;
  } else if (csr == isa::kCsrSsrEnable) {
    old_value = ssr_enable_csr_;
    std::uint64_t next = old_value;
    if (is_write_op) next = operand;
    else if (is_set_op) next |= operand;
    else next &= ~operand;
    ssr_enable_csr_ = next;
    streamer_.set_enabled((next & 1) != 0);
  } else if (isa::is_ssr_cfg_csr(csr, ssr::Streamer::kNumLanes)) {
    const unsigned lane = isa::ssr_csr_lane(csr);
    const isa::SsrCfgReg reg = isa::ssr_csr_reg(csr);
    old_value = streamer_.read_cfg(lane, reg);
    if (is_write_op || operand != 0) {
      // Set/clear forms on config registers are modeled as full writes of
      // the combined value (kernels use csrrw for configuration).
      std::uint64_t next = operand;
      if (is_set_op) next = old_value | operand;
      else if (!is_write_op) next = old_value & ~operand;
      if (!streamer_.write_cfg(lane, reg, next)) {
        ++stats_.stall_cfg;
        return false;  // shadow config occupied: retry next cycle
      }
    }
  } else if (csr == isa::kCsrFpssSync) {
    if (!fpss_.idle(now)) {
      ++stats_.stall_sync;
      return false;
    }
    old_value = 0;
  } else if (csr == isa::kCsrBarrier) {
    if (barrier_) {
      if (!barrier_(params_.hartid)) {
        if (!in_barrier_wait_) {
          in_barrier_wait_ = true;
          trace_.begin(now, "barrier");
        }
        ++stats_.stall_barrier;
        return false;
      }
      if (in_barrier_wait_) {
        in_barrier_wait_ = false;
        trace_.end(now, "barrier");
      }
    }
    old_value = 0;
  } else {
    old_value = 0;  // unimplemented CSRs read as zero, writes ignored
  }

  set_xreg(inst.rd, old_value);
  pc_ += 4;
  return true;
}

}  // namespace issr::core
