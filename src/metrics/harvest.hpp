// Harvest-time derivation of simulated-hardware metrics. Every function
// here is a pure post-run projection of the statistics structs the
// simulators already collect (core/sim.hpp, system/system.hpp) into a
// metrics::Snapshot — nothing is recorded during simulation, so enabling
// metrics cannot perturb timing and result files stay bytewise identical
// with metrics on or off.
//
// The catalog (docs/OBSERVABILITY.md documents every series):
//
//   util_fpu            FP arithmetic issues per worker-FPU-cycle — the
//                       paper's Fig. 4 headline metric, computed by the
//                       same fpu_util() member the driver and benches
//                       report, so the numbers can never diverge
//   util_fpu_fmadd      FMA-class issues only (reduction-free variant)
//   util_fpu_max/min    best/worst single worker FPU utilization
//   util_ssr_lane       SSR lane occupancy: elements moved per lane-cycle
//   util_issr_lane      ISSR lane occupancy
//   util_dma            fraction of cycles with >= 1 DMA channel busy
//   util_noc_link       most-loaded interconnect link: beats granted per
//                       offered duplex capacity (0 when unlimited)
//   tcdm_conflict_rate  TCDM arbitration losses per access attempt
//   barrier_wait_frac   barrier-stall bucket over core-cycles
//   noc_denied_frac     denied beats per beat attempt across all links
//   steal_*             work-queue claim latency / denial counters
//   plus raw counters (lane elements, index-word fetches, TCDM grants/
//   conflicts, DMA bytes by direction, NoC beats/denials by direction)
//
// Every `util_*` gauge and every `*_frac`/`*_rate` is in [0, 1] by
// construction; utilization_in_bounds() asserts it and the driver poisons
// a row's `ok` on violation (same policy as the stall-sum invariant).
#pragma once

#include "metrics/metrics.hpp"

namespace issr::core {
struct CcSimResult;
}
namespace issr::system {
struct SystemResult;
struct SysQueueStats;
}

namespace issr::metrics {

/// Single core complex on ideal memory (SpVV / single-core CsrMV runs).
Snapshot harvest_cc(const core::CcSimResult& r);

/// A System of one or more clusters: adds the TCDM and DMA series, the
/// interconnect series when the System had a fabric, and, when the run
/// used the stealing path, the work-queue claim series.
Snapshot harvest_system(const system::SystemResult& r,
                        const system::SysQueueStats* queue = nullptr);

/// True iff every `util_*` gauge and `*_frac`/`*_rate` entry is within
/// [0, 1] (asserted in debug builds).
bool utilization_in_bounds(const Snapshot& s);

}  // namespace issr::metrics
