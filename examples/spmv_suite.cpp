// SpMV on the (synthetic) SuiteSparse suite — the paper's headline
// workload — on the full 8-core cluster with double-buffered DMA
// streaming. Optionally reads a real MatrixMarket file:
//
//   $ ./examples/spmv_suite                # run the built-in suite subset
//   $ ./examples/spmv_suite path/to/m.mtx  # run a real SuiteSparse matrix
#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "driver/runs.hpp"
#include "model/energy.hpp"
#include "sparse/generate.hpp"
#include "sparse/io.hpp"
#include "sparse/suite.hpp"

using namespace issr;

namespace {

void run_matrix(Table& table, const std::string& name,
                const sparse::CsrMatrix& a) {
  if (!a.fits_u16()) {
    std::printf("skipping %s: column indices exceed 16 bits\n", name.c_str());
    return;
  }
  Rng rng(1);
  const auto x = sparse::random_dense_vector(rng, a.cols());

  // One 8-worker cluster: the System of one, with no fabric.
  const auto run = [&](kernels::Variant v) {
    return driver::run_csrmv_sys(v, sparse::IndexWidth::kU16, 1, 0, a, x,
                                 nullptr, true, {},
                                 driver::SysTuning{.fabric = false});
  };
  const auto base = run(kernels::Variant::kBase);
  const auto issr = run(kernels::Variant::kIssr);
  if (!base.ok || !issr.ok) {
    std::printf("FAIL: %s cluster result mismatch\n", name.c_str());
    std::exit(1);
  }

  const auto& bc = base.sys.system.clusters[0];
  const auto& ic = issr.sys.system.clusters[0];
  const auto base_e = model::estimate_energy(bc);
  const auto issr_e = model::estimate_energy(ic);
  table.add_row({name, fmt_u(a.nnz()), fmt_f(a.avg_row_nnz(), 1),
                 fmt_u(bc.cycles), fmt_u(ic.cycles),
                 fmt_speedup(static_cast<double>(bc.cycles) /
                             static_cast<double>(ic.cycles)),
                 fmt_speedup(base_e.pj_per_fmadd / issr_e.pj_per_fmadd)});
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Cluster SpMV (8 Snitch cores, double-buffered DMA)\n\n");
  Table table("BASE vs ISSR-16 on the cluster");
  table.set_header({"matrix", "nnz", "nnz/row", "BASE cyc", "ISSR cyc",
                    "speedup", "energy gain"});

  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      run_matrix(table, argv[i], sparse::read_mtx_csr(argv[i]));
    }
  } else {
    for (const auto& name : sparse::quick_suite_names()) {
      run_matrix(table, name, sparse::build_suite_matrix(name));
    }
  }
  table.print();
  std::printf("(drop any SuiteSparse .mtx file on the command line to run "
              "the real matrix)\n");
  return 0;
}
