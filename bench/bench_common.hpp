// The tree identity perfbench stamps on its machine record.
#pragma once

#include <string>

#include "common/version.hpp"

namespace issr::bench {

/// Tree identity for perfbench's `machine:` line. One implementation
/// with the results-JSON provenance header (common/version.hpp):
/// ISSR_GIT_DESCRIBE overrides, then `git describe`, then "unknown".
inline std::string git_describe() { return issr::engine_version(); }

}  // namespace issr::bench
