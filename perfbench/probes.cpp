#include "probes.hpp"

#include <vector>

#include "core/fpss.hpp"
#include "mem/ideal_mem.hpp"
#include "mem/tcdm.hpp"
#include "sparse/fiber.hpp"
#include "ssr/lane.hpp"
#include "ssr/port_hub.hpp"
#include "ssr/streamer.hpp"

namespace perfbench {

using issr::cycle_t;

std::uint64_t probe_tcdm(Spans& spans, std::uint64_t cycles) {
  constexpr unsigned kMasters = 8;
  issr::mem::TcdmConfig cfg;
  issr::mem::Tcdm tcdm(cfg, kMasters);
  std::uint64_t next[kMasters] = {};
  Scoped span(spans, "mem.tcdm_tick");
  for (cycle_t now = 0; now < cycles; ++now) {
    tcdm.tick(now);
    for (unsigned m = 0; m < kMasters; ++m) {
      auto& port = tcdm.port(m);
      issr::mem::MemRsp rsp;
      while (port.pop_response(rsp)) {
      }
      if (port.can_accept()) {
        // Masters m and m+4 walk the same bank sequence: a conflict per
        // pair whenever both are pending.
        const std::uint64_t word = (next[m]++ * cfg.num_banks + m % 4) %
                                   (cfg.size_bytes() / 8);
        port.push_request({cfg.base + 8 * word, false, 8, 0, m});
      }
    }
  }
  span.add_work(cycles);
  return tcdm.stats().conflicts;
}

std::uint64_t probe_lane(Spans& spans, std::uint64_t cycles) {
  constexpr issr::addr_t kData = 0x1000'0000;
  constexpr issr::addr_t kIdx = kData + 0x10'0000;
  constexpr std::uint32_t kElems = 4096;
  issr::mem::IdealMemory mem(1);
  issr::ssr::PortHub hub(mem.port(0));
  issr::ssr::LaneParams params;
  params.has_indirection = true;
  issr::ssr::Lane lane(params, hub.add_client());
  std::vector<std::uint32_t> idcs(kElems);
  for (std::uint32_t i = 0; i < kElems; ++i) {
    idcs[i] = (i * 2654435761u) % kElems;
    mem.store().store_f64(kData + 8ull * i, 1.0 + i);
  }
  const auto packed =
      issr::sparse::pack_indices(idcs, issr::sparse::IndexWidth::kU16);
  mem.store().write_block(kIdx, packed.data(), packed.size());
  const auto job = issr::ssr::make_indirect(kData, kIdx, kElems,
                                            issr::sparse::IndexWidth::kU16);
  std::uint64_t popped = 0;
  Scoped span(spans, "ssr.lane_tick");
  for (cycle_t now = 0; now < cycles; ++now) {
    if (!lane.active() && lane.can_accept_job()) lane.submit(job);
    mem.tick(now);
    hub.tick();
    if (lane.can_pop()) {
      lane.pop();
      ++popped;
    }
    lane.tick(now);
  }
  span.add_work(cycles);
  return popped;
}

std::uint64_t probe_fpss(Spans& spans, std::uint64_t cycles) {
  using issr::isa::Inst;
  using issr::isa::Op;
  constexpr std::uint64_t kIters = 1024;
  issr::mem::IdealMemory mem(2);
  issr::ssr::PortHub hub0(mem.port(0));
  issr::ssr::PortHub hub1(mem.port(1));
  issr::ssr::Streamer streamer({}, hub0.add_client(), hub1.add_client());
  issr::core::Fpss fpss({}, streamer, hub0.add_client());
  // FREP over one fmadd, staggering rd/rs3 across four accumulators so
  // the body issues back to back (the kernels' reduction idiom).
  Inst frep;
  frep.op = Op::kFrep;
  frep.frep_insts = 1;
  frep.frep_stagger_max = 3;
  frep.frep_stagger_mask = 0b1001;
  Inst body;
  body.op = Op::kFmaddD;
  body.rd = 2;
  body.rs1 = 8;
  body.rs2 = 9;
  body.rs3 = 2;
  fpss.set_freg(8, 1.0);
  fpss.set_freg(9, 0.5);
  Scoped span(spans, "core.fpss_tick");
  for (cycle_t now = 0; now < cycles; ++now) {
    if (fpss.idle(now) && fpss.can_offload()) {
      fpss.offload({frep, kIters - 1, 0});
      fpss.offload({body, 0, 4});
    }
    mem.tick(now);
    hub0.tick();
    hub1.tick();
    fpss.tick(now);
    streamer.tick(now);
  }
  span.add_work(cycles);
  return fpss.stats().fp_compute;
}

}  // namespace perfbench
