#include "driver/paper.hpp"

#include <array>
#include <cstddef>

namespace issr::driver {
namespace {

using A = Anchor;

constexpr std::size_t kNumAnchors =
    static_cast<std::size_t>(Anchor::kOverXeonPhi) + 1;

// Tolerances: 5% where the paper prints two digits or the value is read
// off a figure, 10% for the "~20" crossover, 0.5% for the CsrMM ratio
// (the paper's ~0.12% change), and 0.2% for the critical paths, which
// the timing model is calibrated to. Every deviation is ROADMAP item 3's
// to close.
constexpr std::array<PaperRow, kNumAnchors> kPaperTable{{
    {A::kFig4aUtilBase, "Fig. 4a", "FPU util, BASE SpVV",
     "nnz 2048, seed 3048", 0.11, 0.05},
    {A::kFig4aUtilSsr, "Fig. 4a", "FPU util, SSR SpVV",
     "nnz 2048, seed 3048", 0.14, 0.05},
    {A::kFig4aUtilIssr16, "Fig. 4a", "FPU util, ISSR16 SpVV",
     "nnz 2048, seed 3048", 0.80, 0.05},
    {A::kFig4aUtilIssr32, "Fig. 4a", "FPU util, ISSR32 SpVV",
     "nnz 2048, seed 3048", 0.67, 0.05},
    {A::kFig4bIssr16Limit, "Fig. 4b", "ISSR16 CsrMV speedup over BASE",
     "192x384, 192 nnz/row, seed 2192", 7.2, 0.05},
    {A::kFig4bIssr32Limit, "Fig. 4b", "ISSR32 CsrMV speedup over BASE",
     "192x384, 192 nnz/row, seed 2192", 6.0, 0.05},
    {A::kFig4bCrossover, "Fig. 4b", "nnz/row where ISSR16 overtakes ISSR32",
     "192 rows, nnz/row 1-192, seed 2000+nnz/row", 20.0, 0.10,
     "not traced yet; the paper names ISSR16's longer (4-accumulator) "
     "reduction", 3, 0.359},
    {A::kCsrmmOverCsrmv, "Sec. IV-A", "CsrMM over CsrMV ISSR16 FPU util",
     "ragusa18, 2 dense columns, seed 7", 1.0012, 0.005},
    {A::kFig4cAtNnz1, "Fig. 4c", "cluster ISSR16 speedup at 1 nnz/row",
     "8 workers, 400x512, seed 3001", 1.9, 0.05,
     "unoverlapped per-tile costs (x transfer) compress the ratio; one CC "
     "gives 1.73x", 3, 0.207},
    {A::kFig4cPeak, "Fig. 4c", "peak cluster ISSR16 speedup",
     "8 workers, 400 rows, nnz/row 1-128", 5.8, 0.05,
     "cluster BASE too fast: it keeps 93% of its one-CC utilization, the "
     "paper's ~72%", 3, 0.195},
    {A::kFig4cAtNnz1Rows1024, "Fig. 4c",
     "cluster ISSR16 speedup at 1 nnz/row", "8 workers, 1024x512, seed 3001",
     1.9, 0.05,
     "unoverlapped per-tile costs (x transfer) compress the ratio; one CC "
     "gives 1.73x", 3, 0.180},
    {A::kFig4cPeakRows1024, "Fig. 4c", "peak cluster ISSR16 speedup",
     "8 workers, 1024 rows, nnz/row 1-128", 5.8, 0.05,
     "cluster BASE too fast: it keeps 93% of its one-CC utilization, the "
     "paper's ~72%", 3, 0.159},
    {A::kFig4dBestGain, "Fig. 4d", "best ISSR16 energy-efficiency gain",
     "8 workers, quick suite, seed 42", 2.7, 0.05,
     "follows the Fig. 4c peak: BASE runs too fast, so its pJ/fmadd is too "
     "low", 3, 0.106},
    {A::kAreaIssrDelta, "Sec. IV-C", "ISSR minus SSR lane area, kGE",
     "area model defaults", 4.4, 0.05},
    {A::kAreaIssrOverhead, "Sec. IV-C", "ISSR lane area over SSR's, +frac",
     "area model defaults", 0.43, 0.05},
    {A::kAreaClusterOverhead, "Sec. IV-C",
     "cluster area added by ISSR, frac", "area model defaults", 0.008, 0.05},
    {A::kTimingSsrPath, "Sec. IV-C", "SSR critical path, ps",
     "timing model defaults", 301.0, 0.002},
    {A::kTimingIssrPath, "Sec. IV-C", "ISSR critical path, ps",
     "timing model defaults", 425.0, 0.002},
    {A::kOverGtx1080Ti, "Sec. V", "peak util over GTX 1080 Ti FP64 (17%)",
     "8 workers, 256x512, 64 and 128 nnz/row", 2.8, 0.05,
     "whole-run cluster util 0.435 against the paper's ~0.48; follows the "
     "Fig. 4c peak", 3, 0.087},
    {A::kOverXeonPhi, "Sec. V", "peak util over Xeon Phi CVR (0.7%)",
     "8 workers, 256x512, 64 and 128 nnz/row", 70.0, 0.05,
     "whole-run cluster util 0.435 against the paper's ~0.48; follows the "
     "Fig. 4c peak", 3, 0.113},
}};

static_assert(
    [] {
      for (std::size_t n = 0; n < kNumAnchors; ++n) {
        const PaperRow& r = kPaperTable[n];
        if (r.anchor != static_cast<Anchor>(n) || r.paper <= 0) return false;
        if (r.deviates() != (r.item > 0) || r.deviates() != (r.bound > r.tol))
          return false;
      }
      return true;
    }(),
    "kPaperTable rows follow Anchor's order; exactly the deviations carry "
    "an item and a bound above their tolerance");

}  // namespace

std::span<const PaperRow> paper_table() { return kPaperTable; }

Anchor fig4a_anchor(kernels::Variant v, sparse::IndexWidth w) {
  switch (v) {
    case kernels::Variant::kBase: return A::kFig4aUtilBase;
    case kernels::Variant::kSsr: return A::kFig4aUtilSsr;
    case kernels::Variant::kIssr: break;
  }
  return w == sparse::IndexWidth::kU16 ? A::kFig4aUtilIssr16
                                       : A::kFig4aUtilIssr32;
}

double paper_util_reference(kernels::Variant v, sparse::IndexWidth w) {
  return kPaperTable[static_cast<std::size_t>(fig4a_anchor(v, w))].paper;
}

}  // namespace issr::driver
