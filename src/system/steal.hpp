// Dynamic inter-cluster work stealing for the System tile kernels
// (system/csrmv_sys.hpp, system/csrmm_sys.hpp): the shared,
// bandwidth-charged work queue, the TCDM mailbox dispatch protocol, the
// worker images, and the one stealing DMCC controller both kernels run —
// CsrMV as its one-phase, one-column instance.
//
// The queue models a fetch-and-increment counter in an LLC-side atomic
// unit next to main memory. A cluster's DMCC claims the next work item
// by sending a small request message across the NoC and receives the
// granted index in a reply. Timing:
//
//   - the request consumes one egress *link* beat when sent (denied by a
//     saturated link -> retried next cycle) and travels one link_latency;
//   - the atomic unit serves at most one claim per cycle, in arrival
//     order — concurrent claimants serialize here, which is the real
//     cost of centralized work distribution;
//   - the grant travels link_latency back and consumes one ingress link
//     beat on delivery (denied -> redelivered next cycle).
//
// Claims deliberately bypass the bank-group crossbar stage (the unit is
// not a memory bank; its one-per-cycle serving rate is its own
// serialization), so a claim costs link bandwidth but never steals a
// data beat's bank-group slot — see Interconnect::try_link_beat.
//
// Determinism: each cluster keeps at most one claim outstanding, the
// System ticks clusters in a deterministic rotating order, and grants
// are assigned in serve order — so the item->cluster ownership map is a
// pure function of the simulated schedule, reproducible across hosts
// and --jobs settings.
//
// Every cluster gets the same fine-grained global tile plan (tile cost
// capped at total / (clusters * kStealTilesPerCluster), LPT-ordered) and
// the same per-worker program objects. Per column phase, a cluster claims
// tiles from that phase's queue and dispatches them through a TCDM
// *mailbox* protocol. Worker programs compile one body per (global tile,
// buffer) pair — per body kind: full column blocks, plus a partial last
// phase — and an idle loop that polls a per-worker mailbox word; the DMCC
// dispatches work by writing the body's instruction address into the
// mailbox, the worker consumes it (zeroes the word) and jalr-jumps to
// the body. A tile a cluster did not win costs its workers nothing —
// they never see it — and a won tile can land in either buffer, so
// double buffering survives any ownership pattern. The layout helpers
// below are the single source of truth (8-byte words after the two
// tile-generation words the planner always reserves):
//
//   flags_addr + 8*(2 + 3w)      mailbox: body pc, 0 = empty (worker w)
//   flags_addr + 8*(2 + 3w + 1)  mailbox argument: the done value
//   flags_addr + 8*(2 + 3w + 2)  worker-private scratch word
//   flags_addr + 8*(2 + 3W + w)  per-worker done generation counters
//
// The DMCC writes the argument before the pc (the worker only reads the
// argument after seeing a nonzero pc) and never overwrites a nonzero
// mailbox (the worker zeroes it on consumption), so the channel needs
// no further synchronization. A multi-phase kernel's bodies are shared by
// every phase, so CsrMM's workers publish the done value the argument
// carries; CsrMV's bodies compile it in. Tile boundaries and per-tile row
// shares are global constants and each row's FP reduction happens in one
// body in one fixed order, so y is bitwise identical at any cluster count
// and any ownership schedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cluster/csrmv_shard.hpp"
#include "common/types.hpp"
#include "mem/interconnect.hpp"
#include "system/barrier.hpp"

namespace issr::system {

/// Reorder a steal plan's tiles longest-processing-time first (cost =
/// nnz + kRowCostOverhead per row, descending; stable, so equal-cost
/// tiles keep row order). Tiles are claimed in plan order, so this makes
/// the queue hand out the expensive tiles — e.g. a power-law matrix's
/// monster rows, which are unsplittable serial chains on one worker —
/// while every cluster still has other work to overlap them with,
/// instead of letting one surface late as the whole system's tail.
/// Execution order is free in steal mode: each row reduces in one body
/// in one fixed order and y tiles write back disjoint ranges, so y stays
/// bitwise identical under any tile order.
void steal_order_tiles(std::vector<cluster::McTilePlan::Tile>& tiles);

/// Steal granularity: the global plan caps each tile's cost at
/// total / (clusters * kStealTilesPerCluster). Finer shards balance the
/// tail better but pay more claim round trips.
inline constexpr std::uint64_t kStealTilesPerCluster = 4;

/// Words the steal protocol inserts between the tile-generation pair
/// and the done flags: mailbox pc + argument + scratch per worker.
inline constexpr unsigned steal_flag_words(unsigned workers) {
  return 3 * workers;
}

inline addr_t steal_mailbox_pc(addr_t flags_addr, unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * worker);
}
inline addr_t steal_mailbox_arg(addr_t flags_addr, unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * worker + 1);
}
inline addr_t steal_scratch(addr_t flags_addr, unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * worker + 2);
}
inline addr_t steal_done_flag(addr_t flags_addr, unsigned workers,
                              unsigned worker) {
  return flags_addr + 8ull * (2 + 3u * workers + worker);
}

/// Observational claim-queue counters (metrics/harvest.hpp). Purely
/// derived from the simulated schedule — recording them never changes a
/// timing decision — and deterministic like everything else here.
struct SysQueueStats {
  std::uint64_t claims = 0;  ///< grants delivered (exhausted replies too)
  /// Sum over delivered claims of (delivery cycle - request send cycle):
  /// the full round trip including both hops, the serve slot, and any
  /// ingress-beat redelivery stalls. claims == 0 means no steal traffic.
  std::uint64_t claim_wait_cycles = 0;
  std::uint64_t claim_wait_max = 0;   ///< slowest single round trip
  std::uint64_t send_denied = 0;      ///< requests denied an egress beat
  std::uint64_t deliver_denied = 0;   ///< grants denied an ingress beat

  SysQueueStats& operator+=(const SysQueueStats& o) {
    claims += o.claims;
    claim_wait_cycles += o.claim_wait_cycles;
    claim_wait_max = std::max(claim_wait_max, o.claim_wait_max);
    send_denied += o.send_denied;
    deliver_denied += o.deliver_denied;
    return *this;
  }
};

/// The shared claim queue over `num_items` work items. One instance is
/// shared by every cluster's controller; ownership is recorded for
/// post-run reporting.
class SysWorkQueue {
 public:
  /// `hop_latency` is the one-way NoC traversal (normally the
  /// interconnect's link_latency).
  SysWorkQueue(std::uint32_t num_items, unsigned num_clusters,
               cycle_t hop_latency);

  std::uint32_t num_items() const { return total_; }

  /// Send cluster `c`'s claim (at most one outstanding per cluster).
  /// Consumes one egress link beat; false = link saturated, retry next
  /// cycle. The granted index is fixed at send time — serve order equals
  /// send order because every request pays the same one-way latency and
  /// the serve cursor is monotone.
  bool try_request(unsigned c, cycle_t now, mem::Interconnect& noc);

  bool outstanding(unsigned c) const { return pending_[c].active; }

  /// Poll for cluster `c`'s grant. Returns true once the reply has both
  /// arrived (request hop + serve slot + reply hop) and claimed an
  /// ingress link beat for its delivery; `item` is then the granted
  /// index, or num_items() if the queue was already exhausted.
  bool poll(unsigned c, cycle_t now, mem::Interconnect& noc,
            std::uint32_t& item);

  /// item -> owning cluster, filled as grants are issued (for results
  /// and determinism tests).
  const std::vector<unsigned>& owners() const { return owners_; }

  const SysQueueStats& stats() const { return stats_; }

 private:
  struct Pending {
    bool active = false;
    cycle_t sent = 0;  ///< request send cycle (claim-latency accounting)
    cycle_t ready = 0;
    std::uint32_t item = 0;
  };

  std::uint32_t total_;
  cycle_t hop_;
  std::uint32_t cursor_ = 0;    ///< next unclaimed item
  cycle_t serve_free_ = 0;      ///< first cycle the atomic unit is free
  std::vector<Pending> pending_;
  std::vector<unsigned> owners_;
  SysQueueStats stats_;
};

/// One worker's steal-mode program and its dispatch table: the
/// instruction address of each body, [kind][2 * tile + buffer] with kind 0
/// the full column block and kind 1 the partial last phase (present only
/// when num_cols is not a multiple of col_block), and of the halt
/// epilogue. Addresses are per worker — body sizes vary with the row share
/// and li expansion.
struct StealWorkerImage {
  std::shared_ptr<const isa::Program> program;
  std::vector<addr_t> body_pc[2];
  addr_t epilogue_pc = 0;
};

/// Build worker `worker`'s steal-mode program over a global plan: the
/// mailbox idle loop, then per body kind, tile and buffer a body that runs
/// the worker's `share` of the tile, publishes its done value (the mailbox
/// argument when `done_from_mailbox`, else the compiled-in tile + 1) and
/// jumps back to the idle loop; then the streamer sync + halt epilogue.
StealWorkerImage build_steal_worker(const sparse::CsrMatrix& a,
                                    const cluster::McTilePlan& plan,
                                    const cluster::McCsrmvConfig& cfg,
                                    cluster::RowShare share,
                                    bool done_from_mailbox, unsigned worker);

/// DMCC model for one cluster under work stealing. Per column phase: load
/// the dense block, claim tiles from the phase's queue (at most one claim
/// in flight, up to one granted tile queued beyond the two staging
/// buffers), load each won tile into whichever buffer is free, dispatch it
/// to the workers in grant order through the mailboxes, write its y slice
/// back, and arrive at the inter-cluster barrier once the queue is
/// drained. Before the final phase's arrival it dispatches the halt
/// epilogue. After the final release every invocation is a no-op.
class StealController {
 public:
  StealController(const cluster::McTilePlan& plan,
                  const cluster::TileOperands& ops,
                  std::shared_ptr<const std::vector<StealWorkerImage>> images,
                  std::shared_ptr<std::vector<SysWorkQueue>> queues,
                  SysBarrier& bar, mem::Interconnect& noc, unsigned idx,
                  unsigned workers);

  void operator()(cluster::Cluster& cl, cycle_t now);

 private:
  enum class BufState { kIdle, kLoading, kReady, kWritingBack };

  std::uint64_t gen(std::uint32_t tile) const {
    return static_cast<std::uint64_t>(phase_) * plan_.tiles.size() + tile;
  }
  unsigned busy_buffers() const {
    return (state_[0] != BufState::kIdle ? 1u : 0u) +
           (state_[1] != BufState::kIdle ? 1u : 0u);
  }
  void start_phase(cluster::Cluster& cl);
  void start_tile_load(cluster::Cluster& cl, unsigned b, std::uint32_t tile);

  const cluster::McTilePlan& plan_;
  cluster::TileOperands ops_;
  std::shared_ptr<const std::vector<StealWorkerImage>> images_;
  std::shared_ptr<std::vector<SysWorkQueue>> queues_;
  SysBarrier* bar_;
  mem::Interconnect* noc_;
  unsigned idx_;
  unsigned workers_;

  bool started_ = false;
  std::uint32_t phase_ = 0;
  bool exhausted_ = false;
  unsigned body_kind_ = 0;  ///< the phase's body kind (partial last phase: 1)
  bool phase_done_ = false;
  bool arrived_ = false;
  bool passed_ = false;
  std::uint64_t queued_in_ = 0;
  std::uint64_t queued_out_ = 0;
  BufState state_[2] = {BufState::kIdle, BufState::kIdle};
  std::uint32_t buf_tile_[2] = {0, 0};
  std::uint64_t load_marker_[2] = {0, 0};
  std::uint64_t wb_marker_[2] = {0, 0};
  std::deque<std::uint32_t> granted_;
  /// Buffers in grant order within the current phase; entry i is the
  /// i-th tile this cluster won this phase.
  std::vector<unsigned> dispatch_;
  /// Per worker: the next dispatch_ entry it has not been handed yet.
  std::vector<std::size_t> next_idx_;
  /// Per worker: whether its halt epilogue has been dispatched.
  std::vector<bool> epilogue_sent_;
  unsigned epilogues_ = 0;  ///< epilogues dispatched so far
};

}  // namespace issr::system
