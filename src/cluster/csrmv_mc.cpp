#include "cluster/csrmv_mc.hpp"

#include <cassert>
#include <memory>

#include "cluster/csrmv_shard.hpp"

namespace issr::cluster {

using sparse::IndexWidth;

McTilePlan plan_tiles(const sparse::CsrMatrix& a, const McCsrmvConfig& cfg) {
  return plan_tiles_range(a, cfg, 0, a.rows());
}

McCsrmvResult run_csrmv_multicore(const sparse::CsrMatrix& a,
                                  const sparse::DenseVector& x,
                                  const McCsrmvConfig& cfg) {
  assert(a.cols() <= x.size());
  assert(cfg.width == IndexWidth::kU32 || a.fits_u16());
  McTilePlan plan = plan_tiles(a, cfg);

  // Worker programs.
  std::vector<std::shared_ptr<const isa::Program>> programs;
  for (unsigned w = 0; w < cfg.cluster.num_workers; ++w) {
    programs.push_back(std::make_shared<const isa::Program>(
        build_shard_worker_program(a, plan, cfg, RowShare::kCostBalanced, w)));
  }

  Cluster cluster(cfg.cluster, std::move(programs));

  // Stage operands in main memory.
  const TileOperands ops = stage_operands(cluster.main_mem().store(), a,
                                          cfg.width, x.data(), a.cols());

  // One column phase: the controller is done once its tiles have all
  // written back.
  auto controller =
      std::make_shared<ShardController>(plan, ops, cfg.cluster.num_workers);
  cluster.set_controller([controller](Cluster& cl, cycle_t) {
    controller->tick(cl);
    if (controller->phase_done()) cl.set_controller_done(true);
  });

  if (cfg.trace_sink) cluster.attach_trace(*cfg.trace_sink);
  if (cfg.inject.drop_cluster_barrier) {
    cluster.barrier().inject_drop_next_release();
  }
  if (cfg.inject.stall_dma) cluster.dma().inject_stall();

  McCsrmvResult result;
  result.plan = plan;
  result.cluster =
      cfg.max_cycles != 0 ? cluster.run(cfg.max_cycles) : cluster.run();
  result.y = sparse::DenseVector(a.rows());
  cluster.main_mem().store().read_doubles(ops.y, result.y.data(), a.rows());
  return result;
}

}  // namespace issr::cluster
