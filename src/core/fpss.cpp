#include "core/fpss.hpp"

#include <bit>
#include <cassert>

#include "core/compile.hpp"

namespace issr::core {

using isa::Inst;
using isa::Op;

namespace {

/// Apply FREP register staggering for one iteration offset.
Inst apply_stagger(const Inst& inst, unsigned offset, unsigned mask) {
  if (offset == 0) return inst;
  Inst out = inst;
  if (mask & 0x1) out.rd = (out.rd + offset) & 31;
  if (mask & 0x2) out.rs1 = (out.rs1 + offset) & 31;
  if (mask & 0x4) out.rs2 = (out.rs2 + offset) & 31;
  if (mask & 0x8) out.rs3 = (out.rs3 + offset) & 31;
  return out;
}

}  // namespace

FpssMicroOp lower_fpss_op(const Inst& inst) {
  using isa::Issue;
  using isa::RegFile;
  const isa::OpInfo& r = isa::op_info(inst.op);
  FpssMicroOp m;
  m.inst = inst;
  // FP source registers, in operand order.
  if (r.rs1 == RegFile::kF) m.srcs[m.n_src++] = inst.rs1;
  if (r.rs2 == RegFile::kF) m.srcs[m.n_src++] = inst.rs2;
  if (r.rs3 == RegFile::kF) m.srcs[m.n_src++] = inst.rs3;
  switch (r.issue) {
    case Issue::kFpLoad: m.kind = FpssKind::kLoad; break;
    case Issue::kFpStore: m.kind = FpssKind::kStore; break;
    case Issue::kFpFromInt: m.kind = FpssKind::kFromInt; break;
    case Issue::kFpToInt: m.kind = FpssKind::kToInt; break;
    default: break;
  }
  if (isa::op_writes_fp_rd(inst.op)) m.mflags |= kMWritesFp;
  if (isa::op_is_fp_compute(inst.op)) m.mflags |= kMFpCompute;
  if (r.issue == Issue::kFpFma) m.mflags |= kMFmadd;
  if (r.issue == Issue::kFpMul) m.mflags |= kMFmul;
  if (fpu_is_iterative(inst.op)) m.mflags |= kMIterative;
  m.flops = static_cast<std::uint8_t>(isa::op_flops(inst.op));
  return m;
}

Fpss::Fpss(const FpssParams& params, ssr::Streamer& streamer,
           ssr::PortClient lsu_port, const CompiledProgram* program)
    : params_(params), streamer_(streamer), lsu_(lsu_port), program_(program) {}

void Fpss::offload(const OffloadEntry& entry) {
  assert(can_offload());
  assert(op_is_fpss(entry.inst.op));
  queue_.push_back(entry);
}

bool Fpss::idle(cycle_t now) const {
  if (!queue_.empty() || frep_.active || lsu_outstanding_ > 0) return false;
  if (!int_wb_.empty()) return false;
  return last_completion_ <= now;
}

std::optional<Fpss::IntWriteback> Fpss::pop_int_writeback(cycle_t now) {
  if (int_wb_.empty() || int_wb_.front().ready_at > now) return std::nullopt;
  const auto& front = int_wb_.front();
  IntWriteback wb{front.rd, front.value};
  int_wb_.pop_front();
  return wb;
}

bool Fpss::issue(const FpssMicroOp& m, std::uint64_t int_operand,
                 cycle_t now) {
  // --- Readiness checks ----------------------------------------------------
  // Stream sources must all have data; non-stream sources must not be
  // pending in the pipeline.
  for (unsigned s = 0; s < m.n_src; ++s) {
    const unsigned r = m.srcs[s];
    if (streamer_.is_stream_reg(r)) {
      if (!streamer_.lane(r).can_pop()) {
        streamer_.lane(r).note_starved();
        ++stats_.stall_stream;
        return false;
      }
    } else if (scoreboard_busy(r, now)) {
      note_fp_wait(r, now);
      ++stats_.stall_raw;
      return false;
    }
  }

  const unsigned rd = m.inst.rd;
  if (m.mflags & kMWritesFp) {
    if (streamer_.is_stream_reg(rd)) {
      assert(m.kind != FpssKind::kLoad &&
             "fld into a stream register is not supported");
      if (!streamer_.lane(rd).can_push()) {
        ++stats_.stall_stream;
        return false;
      }
    } else if (scoreboard_busy(rd, now)) {
      note_fp_wait(rd, now);
      ++stats_.stall_raw;  // WAW on an in-flight writeback
      return false;
    }
  }

  if (m.kind == FpssKind::kLoad || m.kind == FpssKind::kStore) {
    if (lsu_outstanding_ >= params_.lsu_max_outstanding ||
        !lsu_.can_request()) {
      ++stats_.stall_mem;
      return false;
    }
  }

  if ((m.mflags & kMIterative) && iterative_busy_until_ > now) {
    if (iterative_busy_until_ < self_wake_) self_wake_ = iterative_busy_until_;
    ++stats_.stall_raw;
    return false;
  }

  // --- Execute ---------------------------------------------------------------
  ++stats_.issued;
  // A stream register pops exactly once per instruction, even when several
  // operand fields name it (the fsgnj.d rd, ftX, ftX move idiom).
  double stream_val[ssr::Streamer::kNumLanes] = {};
  bool stream_popped[ssr::Streamer::kNumLanes] = {};
  auto read_src = [&](unsigned r) -> double {
    if (streamer_.is_stream_reg(r)) {
      if (!stream_popped[r]) {
        stream_val[r] = streamer_.lane(r).pop();
        stream_popped[r] = true;
      }
      return stream_val[r];
    }
    return fregs_[r];
  };

  const unsigned lat = fpu_latency(params_.fpu, m.inst.op);
  double result = 0.0;
  switch (m.kind) {
    case FpssKind::kCompute: {
      // Pop/read operands in field order.
      double a = 0.0, b = 0.0, c = 0.0;
      if (m.n_src >= 1) a = read_src(m.srcs[0]);
      if (m.n_src >= 2) b = read_src(m.srcs[1]);
      if (m.n_src >= 3) c = read_src(m.srcs[2]);
      result = fpu_compute(m.inst.op, a, b, c);
      if (m.mflags & kMIterative) iterative_busy_until_ = now + lat;
      if (m.mflags & kMFpCompute) {
        ++stats_.fp_compute;
        stats_.flops += m.flops;
        if (m.mflags & kMFmadd) ++stats_.fmadd;
        if (m.mflags & kMFmul) ++stats_.fmul;
      }
      break;
    }
    case FpssKind::kFromInt:
      result = fpu_compute_from_int(m.inst.op, int_operand);
      break;
    case FpssKind::kLoad: {
      mem::MemReq req;
      req.addr = int_operand;  // effective address captured at core issue
      req.bytes = 8;
      lsu_.request(req, rd);
      load_pending_[rd] = true;
      ++lsu_outstanding_;
      ++stats_.loads;
      return true;
    }
    case FpssKind::kStore: {
      const double value = read_src(m.srcs[0]);
      mem::MemReq req;
      req.addr = int_operand;
      req.bytes = 8;
      req.is_write = true;
      req.wdata = std::bit_cast<std::uint64_t>(value);
      lsu_.request(req, 0);
      ++stats_.stores;
      return true;
    }
    case FpssKind::kToInt: {
      const double a = read_src(m.srcs[0]);
      const double b = m.n_src > 1 ? read_src(m.srcs[1]) : 0.0;
      int_wb_.push_back(
          {now + lat, m.inst.rd, fpu_compute_to_int(m.inst.op, a, b)});
      last_completion_ = std::max(last_completion_, now + lat);
      return true;
    }
  }
  // The FP result of a kCompute or kFromInt op.
  if (streamer_.is_stream_reg(rd)) {
    streamer_.lane(rd).push(result);
  } else {
    fregs_[rd] = result;
    busy_until_[rd] = now + lat;
    last_completion_ = std::max(last_completion_, now + lat);
  }
  return true;
}

void Fpss::arm_replay() {
  const bool stagger = frep_.stagger_mask != 0 && frep_.stagger_max != 0;
  const unsigned period = stagger ? frep_.stagger_max + 1u : 1u;
  const unsigned mask = stagger ? frep_.stagger_mask : 0u;
  rows_.clear();
  for (unsigned offset = 0; offset < period; ++offset) {
    for (const Inst& inst : frep_.buffer) {
      rows_.push_back(lower_fpss_op(apply_stagger(inst, offset, mask)));
    }
  }
  // Replay resumes at iteration 1.
  frep_row_ = rows_.data() + (period == 1 ? 0 : frep_.n_insts);
}

void Fpss::tick(cycle_t now) {
  advanced_ = false;
  self_wake_ = kCycleNever;

  // 1. FP load writebacks.
  mem::MemRsp rsp;
  while (lsu_.pop_response(rsp)) {
    const unsigned rd = rsp.id & 31;
    assert(load_pending_[rd]);
    fregs_[rd] = std::bit_cast<double>(rsp.rdata);
    load_pending_[rd] = false;
    assert(lsu_outstanding_ > 0);
    --lsu_outstanding_;
    advanced_ = true;
  }

  // 2. Sequencer: pick and issue at most one instruction.
  if (frep_.active && !frep_.capturing) {
    // Replay from the current iteration's row.
    if (issue(frep_row_[frep_.pos], 0, now)) {
      advanced_ = true;
      if (++frep_.pos == frep_.n_insts) {
        frep_.pos = 0;
        if (++frep_.iter == frep_.total_iters) {
          frep_.active = false;
          trace_.end(now, "frep");
        } else {
          frep_row_ += frep_.n_insts;
          if (frep_row_ == rows_.data() + rows_.size()) {
            frep_row_ = rows_.data();
          }
        }
      }
    }
    return;
  }

  if (queue_.empty()) {
    ++stats_.idle_cycles;
    return;
  }

  const OffloadEntry& front = queue_.front();
  if (front.inst.op == Op::kFrep) {
    assert(!frep_.active && "nested FREP is not supported");
    advanced_ = true;
    frep_.active = true;
    frep_.capturing = true;
    frep_.buffer.clear();
    frep_.n_insts = front.inst.frep_insts;
    frep_.total_iters = front.int_operand + 1;  // rs1 + 1 iterations
    frep_.iter = 0;
    frep_.pos = 0;
    frep_.stagger_max = front.inst.frep_stagger_max;
    frep_.stagger_mask = front.inst.frep_stagger_mask;
    const cycle_t setup_iters = frep_.total_iters;
    queue_.pop_front();
    ++stats_.issued;
    trace_.begin(now, "frep", setup_iters);
    if (frep_.n_insts == 0) {
      // A zero-length FREP body is a complete no-op loop. (It previously
      // wedged the sequencer: the capture-complete check only ran after a
      // successful push, which a zero-length capture never performs, so
      // every later FP offload was swallowed into the buffer and the sync
      // CSR hung until the watchdog.)
      frep_.active = false;
      frep_.capturing = false;
      trace_.end(now, "frep");
    }
    return;  // FREP setup occupies the issue slot this cycle
  }

  if (frep_.capturing) {
    // Iteration 0 executes while capturing into the loop buffer.
    assert(front.inst.op != Op::kFld && front.inst.op != Op::kFsd &&
           "memory operations inside FREP are not supported");
  }
  // The entry's micro-op: from the core's translation (front.inst is the
  // instruction at front.pc) or, for a bare subsystem, lowered here.
  FpssMicroOp lowered;
  const FpssMicroOp& m = program_ != nullptr
                             ? program_->mop(front.pc)
                             : (lowered = lower_fpss_op(front.inst));
  if (!issue(m, front.int_operand, now)) return;
  advanced_ = true;
  if (frep_.capturing) {
    frep_.buffer.push_back(front.inst);
    if (frep_.buffer.size() == frep_.n_insts) {
      frep_.capturing = false;
      frep_.pos = 0;
      frep_.iter = 1;
      if (frep_.total_iters == 1) {
        frep_.active = false;
        trace_.end(now, "frep");
      } else {
        arm_replay();
      }
    }
  }
  queue_.pop_front();
}

}  // namespace issr::core
