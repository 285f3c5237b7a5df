#include "metrics/harvest.hpp"

#include <cassert>
#include <cstdint>

#include "core/sim.hpp"
#include "system/steal.hpp"
#include "system/system.hpp"

namespace issr::metrics {

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// The series every engine level shares, computed from flat aggregates.
/// `cycles` is the wall cycle count, `workers` the worker-FPU count (so
/// cycles * workers is the per-lane/per-FPU capacity denominator).
struct CommonInputs {
  std::uint64_t cycles = 0;
  std::uint64_t workers = 0;
  std::uint64_t fp_compute = 0;
  std::uint64_t fmadd = 0;
  double fpu_util = 0.0;      ///< the level's own fpu_util() value
  double fpu_util_min = 0.0;  ///< worst single worker
  double fpu_util_max = 0.0;  ///< best single worker
  std::uint64_t ssr_elems = 0;
  std::uint64_t issr_elems = 0;
  std::uint64_t issr_idx_words = 0;
  std::uint64_t port_mux_conflicts = 0;
  std::uint64_t barrier_stalls = 0;
};

void fill_common(Registry& reg, const CommonInputs& in) {
  const std::uint64_t lane_cycles = in.cycles * in.workers;
  reg.observe_max("util_fpu", in.fpu_util);
  reg.observe_max("util_fpu_fmadd", ratio(in.fmadd, lane_cycles));
  reg.observe_min("util_fpu_min", in.fpu_util_min);
  reg.observe_max("util_fpu_max", in.fpu_util_max);
  reg.observe_max("util_ssr_lane", ratio(in.ssr_elems, lane_cycles));
  reg.observe_max("util_issr_lane", ratio(in.issr_elems, lane_cycles));
  reg.observe_max("barrier_wait_frac", ratio(in.barrier_stalls, lane_cycles));
  reg.add("ssr_lane_elems", in.ssr_elems);
  reg.add("issr_lane_elems", in.issr_elems);
  reg.add("issr_idx_word_reqs", in.issr_idx_words);
  reg.add("lane_port_mux_conflicts", in.port_mux_conflicts);
}

std::uint64_t lane_elems(const ssr::LaneStats& s) {
  return s.elems_read + s.elems_written;
}

/// Accumulate one cluster's per-worker stats into `in` (the system
/// harvest folds several clusters through this before fill_common).
void accumulate_cluster(CommonInputs& in, const cluster::ClusterResult& c) {
  for (std::size_t w = 0; w < c.fpss.size(); ++w) {
    const double u = ratio(c.fpss[w].fp_compute, c.cycles);
    if (in.workers == 0) {
      in.fpu_util_min = in.fpu_util_max = u;
    } else {
      if (u < in.fpu_util_min) in.fpu_util_min = u;
      if (u > in.fpu_util_max) in.fpu_util_max = u;
    }
    ++in.workers;
    in.fp_compute += c.fpss[w].fp_compute;
    in.fmadd += c.fpss[w].fmadd;
  }
  for (const auto& l : c.ssr_lanes) {
    in.ssr_elems += lane_elems(l);
    in.port_mux_conflicts += l.port_mux_conflicts;
  }
  for (const auto& l : c.issr_lanes) {
    in.issr_elems += lane_elems(l);
    in.issr_idx_words += l.idx_word_reqs;
    in.port_mux_conflicts += l.port_mux_conflicts;
  }
  in.barrier_stalls += c.total_stalls()[trace::Bucket::kBarrier];
}

void fill_tcdm(Registry& reg, const mem::TcdmStats& t) {
  reg.observe_max("tcdm_conflict_rate", t.conflict_rate());
  reg.add("tcdm_grants", t.grants);
  reg.add("tcdm_conflicts", t.conflicts);
}

void fill_dma(Registry& reg, std::uint64_t busy_cycles,
              std::uint64_t dma_cycle_capacity, std::uint64_t jobs,
              std::uint64_t noc_denied_cycles, std::uint64_t bytes_in,
              std::uint64_t bytes_out) {
  reg.observe_max("util_dma", ratio(busy_cycles, dma_cycle_capacity));
  reg.add("dma_jobs", jobs);
  reg.add("dma_noc_denied_cycles", noc_denied_cycles);
  reg.add("dma_bytes_in", bytes_in);
  reg.add("dma_bytes_out", bytes_out);
}

/// Interconnect: per-link busy fraction against the offered duplex
/// capacity (2 directions x link_beats_per_cycle x cycles); the gauge
/// keeps the most-loaded link. Unlimited links report 0 — there is no
/// capacity to saturate.
void fill_noc(Registry& reg, const system::SystemResult& r) {
  std::uint64_t beats_in = 0, beats_out = 0, denied_in = 0, denied_out = 0;
  double max_link_util = 0.0;
  const std::uint64_t duplex_capacity =
      2ull * r.noc_config.link_beats_per_cycle * r.cycles;
  for (const auto& l : r.noc_links) {
    beats_in += l.beats_in;
    beats_out += l.beats_out;
    denied_in += l.denied_in;
    denied_out += l.denied_out;
    const double u = ratio(l.beats_in + l.beats_out, duplex_capacity);
    if (u > max_link_util) max_link_util = u;
  }
  reg.observe_max("util_noc_link", max_link_util);
  reg.observe_max(
      "noc_denied_frac",
      ratio(denied_in + denied_out,
            beats_in + beats_out + denied_in + denied_out));
  reg.add("noc_beats_in", beats_in);
  reg.add("noc_beats_out", beats_out);
  reg.add("noc_denied_in", denied_in);
  reg.add("noc_denied_out", denied_out);
  reg.add("noc_group_conflicts", r.noc_group_conflicts);
}

}  // namespace

Snapshot harvest_cc(const core::CcSimResult& r) {
  Registry reg;
  CommonInputs in;
  in.cycles = r.cycles;
  in.workers = 1;
  in.fp_compute = r.fpss.fp_compute;
  in.fmadd = r.fpss.fmadd;
  in.fpu_util = r.fpu_util();
  in.fpu_util_min = in.fpu_util_max = in.fpu_util;
  in.ssr_elems = lane_elems(r.ssr_lane);
  in.issr_elems = lane_elems(r.issr_lane);
  in.issr_idx_words = r.issr_lane.idx_word_reqs;
  in.port_mux_conflicts =
      r.ssr_lane.port_mux_conflicts + r.issr_lane.port_mux_conflicts;
  in.barrier_stalls = r.stalls[trace::Bucket::kBarrier];
  fill_common(reg, in);
  return reg.snapshot();
}

Snapshot harvest_system(const system::SystemResult& r,
                        const system::SysQueueStats* queue) {
  Registry reg;
  CommonInputs in;
  in.cycles = r.cycles;
  mem::TcdmStats tcdm;
  std::uint64_t dma_busy = 0, dma_jobs = 0, dma_denied = 0;
  for (const auto& c : r.clusters) {
    accumulate_cluster(in, c);
    tcdm.grants += c.tcdm.grants;
    tcdm.conflicts += c.tcdm.conflicts;
    tcdm.dma_bank_claims += c.tcdm.dma_bank_claims;
    dma_busy += c.dma.busy_cycles;
    dma_jobs += c.dma.jobs;
    dma_denied += c.dma.noc_denied_cycles;
  }
  in.fpu_util = r.fpu_util();
  fill_common(reg, in);
  fill_tcdm(reg, tcdm);
  // DMA capacity denominator: one busy-or-idle decision per cluster's
  // engine per cycle. main_mem_* are the shared memory's system totals.
  fill_dma(reg, dma_busy, r.cycles * r.clusters.size(), dma_jobs, dma_denied,
           r.main_mem_read, r.main_mem_written);

  if (!r.noc_links.empty()) fill_noc(reg, r);
  if (queue != nullptr) {
    reg.add("steal_claims", queue->claims);
    reg.add("steal_claim_wait_cycles", queue->claim_wait_cycles);
    reg.add("steal_send_denied", queue->send_denied);
    reg.add("steal_deliver_denied", queue->deliver_denied);
    reg.observe_max("steal_claim_wait_max",
                    static_cast<double>(queue->claim_wait_max));
    reg.observe_max("steal_claim_wait_avg",
                    ratio(queue->claim_wait_cycles, queue->claims));
  }
  return reg.snapshot();
}

bool utilization_in_bounds(const Snapshot& s) {
  const auto bounded_name = [](const std::string& n) {
    const auto ends_with = [&n](const char* suffix) {
      const std::string_view sv(suffix);
      return n.size() >= sv.size() &&
             std::string_view(n).substr(n.size() - sv.size()) == sv;
    };
    return n.rfind("util_", 0) == 0 || ends_with("_frac") ||
           ends_with("_rate");
  };
  for (const auto& e : s.entries()) {
    if (e.kind != Kind::kGaugeMax && e.kind != Kind::kGaugeMin) continue;
    if (!bounded_name(e.name)) continue;
    if (!(e.value >= 0.0 && e.value <= 1.0)) {
      assert(false && "utilization metric escaped [0, 1]");
      return false;
    }
  }
  return true;
}

}  // namespace issr::metrics
