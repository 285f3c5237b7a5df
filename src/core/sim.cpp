#include "core/sim.hpp"

#include <cassert>
#include <optional>

#include "common/bitutil.hpp"
#include "common/log.hpp"
#include "core/compile.hpp"

namespace issr::core {

CcSim::CcSim(const CcSimConfig& config)
    : config_(config), alloc_cursor_(config.data_base) {
  const unsigned num_ports =
      config_.cc.streamer.issr_lane.dedicated_idx_port ? 3 : 2;
  memory_ =
      std::make_unique<mem::IdealMemory>(num_ports, config_.mem_latency);
  if (config_.arena != nullptr) memory_->store().set_arena(config_.arena);
}

void CcSim::set_program(const isa::Program& program) {
  set_program(std::make_shared<const CompiledProgram>(program));
}

void CcSim::set_program(std::shared_ptr<const CompiledProgram> translation) {
  assert(translation && "set_program requires a program");
  program_ = std::move(translation);
  mem::MemPort* idx_port =
      config_.cc.streamer.issr_lane.dedicated_idx_port ? &memory_->port(2)
                                                       : nullptr;
  cc_ = std::make_unique<CoreComplex>(config_.cc, *program_, memory_->port(0),
                                      memory_->port(1), idx_port);
}

addr_t CcSim::alloc(std::size_t bytes, std::size_t align) {
  alloc_cursor_ = align_up(alloc_cursor_, align);
  const addr_t base = alloc_cursor_;
  alloc_cursor_ += bytes;
  return base;
}

addr_t CcSim::stage(const std::vector<double>& values) {
  const addr_t base = alloc(values.size() * sizeof(double));
  memory_->store().write_doubles(base, values.data(), values.size());
  return base;
}

addr_t CcSim::stage_indices(const std::vector<std::uint32_t>& idcs,
                            sparse::IndexWidth width,
                            unsigned misalign_bytes) {
  const auto packed = sparse::pack_indices(idcs, width);
  const addr_t base = alloc(packed.size() + misalign_bytes) + misalign_bytes;
  if (!packed.empty()) {
    memory_->store().write_block(base, packed.data(), packed.size());
  }
  return base;
}

addr_t CcSim::stage_u32(const std::vector<std::uint32_t>& words) {
  const addr_t base = alloc(words.size() * sizeof(std::uint32_t), 4);
  if (!words.empty()) {
    memory_->store().write_u32s(base, words.data(), words.size());
  }
  return base;
}

std::vector<double> CcSim::read_f64s(addr_t addr, std::size_t count) const {
  std::vector<double> out(count);
  memory_->store().read_doubles(addr, out.data(), count);
  return out;
}

void CcSim::attach_trace(trace::TraceSink& sink) {
  assert(cc_ && "set_program() must be called before attach_trace()");
  cc_->attach_trace(sink, "cc0");
  trace_sink_ = &sink;
}

CcSimResult CcSim::run(cycle_t max_cycles) {
  assert(cc_ && "set_program() must be called before run()");
  // The fused executor (core/compile.hpp) runs untraced: a trace sink
  // needs every unit's per-cycle events. It fuses only on the two-port
  // topology (CompiledExec's own gate). Exact either way.
  std::optional<CompiledExec> exec;
  if (trace_sink_ == nullptr) exec.emplace(*cc_, *memory_);
  CompiledExec* const cx = exec ? &*exec : nullptr;
  // Idle-cycle fast-forward (run_engine in core/engine.hpp): when every
  // unit reports no event before a future horizon — memory response
  // maturing, scoreboard/pipeline timer expiry, FPU-subsystem drain
  // completing — the engine measures one real wait tick and replays the
  // remaining span arithmetically. Exact by construction.
  struct Units {
    CcSim& s;
    CompiledExec* cx;
    void tick(cycle_t now) {
      if (cx != nullptr) {
        if (cx->try_tick(now)) return;
        cx->before_unfused_tick();
      }
      s.memory_->tick(now);
      s.cc_->tick(now);
    }
    /// Engine loop-top hook: burst through consecutive fused cycles
    /// without returning for the per-cycle done()/next_event() scans.
    /// The skipped checks are exactly those an unfused run answers
    /// trivially: the core cannot halt inside a fused cycle (so done()
    /// stays false) and every burst-internal cycle made progress (so the
    /// horizon would have been `now`). The burst hands back to the
    /// engine at the first no-progress cycle — with every per-unit
    /// next_event hook exact and the bypass slots empty, the ordinary
    /// fast-forward and watchdog logic proceed unchanged — and at the
    /// cycle budget, and falls through to one unfused tick when the
    /// fused preconditions fail.
    cycle_t tick_span(cycle_t now, cycle_t limit) {
      if (cx != nullptr) {
        const cycle_t n = cx->fused_span(now, limit);
        if (n == limit) return n;  // cycle budget exhausted mid-burst
        if (n != now && !cx->fused_advanced()) {
          return n;  // no-progress cycle ran: engine scans
        }
        // Seam (possibly after fused progress): one unfused tick.
        cx->before_unfused_tick();
        now = n;
      }
      s.memory_->tick(now);
      s.cc_->tick(now);
      return now + 1;
    }
    bool done(cycle_t now) const { return s.cc_->quiescent(now); }
    cycle_t next_event(cycle_t now) const {
      if (cx != nullptr && cx->fused_advanced()) return now;
      const cycle_t ce = s.cc_->next_event(now);
      const cycle_t me = s.memory_->next_event();
      return me < ce ? me : ce;
    }
    void visit_counters(const CounterVisitor& f) {
      s.cc_->visit_wait_counters(f);
    }
    void after_replay() {
      if (cx != nullptr) cx->after_replay();
      s.cc_->resync_account();
    }
  };
  const EngineRun er =
      run_engine(Units{*this, cx}, max_cycles, config_.fast_forward);
  const cycle_t now = er.cycles;
  // A run can stop with a lane's final bypassed store still undelivered;
  // materialize it so the port drain below serves it (the unfused
  // path has the same final-cycle store pending at the port).
  if (cx != nullptr) cx->flush();
  CcSimResult result;
  result.ff_skipped = er.skipped;
  if (er.stop != EngineStop::kDone) {
    result.aborted = true;
    sim::Fault& f = result.fault;
    if (er.stop == EngineStop::kCycleLimit) {
      f.code = sim::FaultCode::kCycleLimit;
      f.message = "cycle budget exhausted before the CC went quiescent";
      ISSR_ERROR("CcSim::run hit the cycle limit (%llu) at pc=0x%llx",
                 static_cast<unsigned long long>(max_cycles),
                 static_cast<unsigned long long>(cc_->core().pc()));
    } else {  // kNoProgress: provably wedged (see core/engine.hpp)
      const bool at_barrier = cc_->core().in_barrier_wait();
      f.code = at_barrier ? sim::FaultCode::kBarrierDeadlock
                          : sim::FaultCode::kWatchdogNoProgress;
      f.message = at_barrier
                      ? "core parked at a barrier that can never release"
                      : "no unit can make progress without an external event";
      if (at_barrier) f.barrier = "hart waiting at barrier CSR";
      ISSR_ERROR("CcSim::run watchdog: no forward progress at cycle %llu "
                 "(pc=0x%llx%s)",
                 static_cast<unsigned long long>(now),
                 static_cast<unsigned long long>(cc_->core().pc()),
                 at_barrier ? ", in barrier wait" : "");
    }
    f.cycle = now;
    f.last_next_event = er.last_horizon;
    f.harts.push_back(sim::HartState{0, config_.cc.core.hartid,
                                     cc_->core().pc(), cc_->halted()});
    f.stalls = cc_->stall_buckets();
    if (trace_sink_ != nullptr) {
      trace::Tracer watchdog;
      watchdog.attach(*trace_sink_, trace_sink_->add_track("cc0", "watchdog"));
      watchdog.instant(now, sim::to_string(f.code), f.harts[0].pc);
    }
  }
  cc_->close_trace(now);

  // Drain: grant any store still pending at the memory ports (a write
  // issued on the final cycle has not been serviced yet).
  for (cycle_t d = 0; d < config_.mem_latency + 4; ++d) {
    memory_->tick(now + d);
  }

  result.cycles = now;
  result.last_pc = cc_->core().pc();
  result.core = cc_->core().stats();
  result.fpss = cc_->fpss().stats();
  result.ssr_lane = cc_->streamer().lane(ssr::Streamer::kSsrLane).stats();
  result.issr_lane = cc_->streamer().lane(ssr::Streamer::kIssrLane).stats();
  result.stalls = cc_->stall_buckets();
  assert(result.stalls.total() == result.cycles &&
         "stall buckets must decompose the cycle count exactly");
  return result;
}

}  // namespace issr::core
