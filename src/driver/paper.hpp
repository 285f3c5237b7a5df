// The paper's headline numbers, one row per anchor: where the paper
// reports it, the model input it is measured on, the paper's value and
// how close the model must come. bench/paper_report measures every row
// and fails when one leaves its limit; CTest runs it as paper_fidelity.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "kernels/kargs.hpp"
#include "sparse/fiber.hpp"

namespace issr::driver {

/// Every anchor, in paper_table()'s row order.
enum class Anchor : std::uint8_t {
  kFig4aUtilBase, kFig4aUtilSsr, kFig4aUtilIssr16, kFig4aUtilIssr32,
  kFig4bIssr16Limit, kFig4bIssr32Limit, kFig4bCrossover,
  kCsrmmOverCsrmv,
  kFig4cAtNnz1, kFig4cPeak, kFig4cAtNnz1Rows1024, kFig4cPeakRows1024,
  kFig4dBestGain,
  kAreaIssrDelta, kAreaIssrOverhead, kAreaClusterOverhead,
  kTimingSsrPath, kTimingIssrPath,
  kOverGtx1080Ti, kOverXeonPhi,
};

/// One anchor. The model must come within `tol` of the paper's value,
/// as a relative error. A known deviation misses `tol`; it names its
/// cause, the ROADMAP item that owns it and the relative error it meets
/// today (`bound`), so a change that widens the gap fails as well.
struct PaperRow {
  Anchor anchor;
  const char* figure;    ///< where the paper reports the value
  const char* quantity;  ///< what the model measures
  const char* input;     ///< the model input, with its size and seed
  double paper;
  double tol;
  const char* cause = nullptr;
  int item = 0;
  double bound = 0.0;

  constexpr bool deviates() const { return cause != nullptr; }
  double rel_err(double model) const {
    return std::abs(model - paper) / paper;
  }
  /// False for NaN, so an anchor nobody measured fails.
  bool holds(double model) const {
    return rel_err(model) <= (deviates() ? bound : tol);
  }
};

/// Every row, indexed by Anchor.
std::span<const PaperRow> paper_table();

/// The Fig. 4a FPU-utilization anchor of a kernel variant (BASE and SSR
/// at 32-bit indices, ISSR at 16 or 32).
Anchor fig4a_anchor(kernels::Variant v, sparse::IndexWidth w);

/// The paper's Fig. 4a FPU utilization for a kernel variant (BASE 0.11,
/// SSR 0.14, ISSR 0.80/0.67 at 16/32-bit indices): the reference column
/// of the perf report.
double paper_util_reference(kernels::Variant v, sparse::IndexWidth w);

}  // namespace issr::driver
