// Engine build provenance, stamped into every results JSON header and
// perfbench's machine record so a committed number can always be traced
// to the code and build that produced it (and so a result cache could
// key on engine identity).
//
// Everything here is a *static build fact*: the source revision, the
// CMake build type and whether LTO was on. Runtime state is deliberately
// excluded: CI byte-diffs result files across runtime knobs (--jobs,
// tracing, caching), and a provenance header that tracked them would
// break the "results are a pure function of the scenario matrix" bar.
#pragma once

#include <string>

namespace issr {

/// Source revision: `$ISSR_GIT_DESCRIBE` when set (CI and committed
/// artifacts pin symbolic labels), else `git describe --always --dirty`,
/// else "unknown" outside a repository. Computed once per process.
const std::string& engine_version();

/// CMake build type the library was compiled as ("Release", "Debug", ...).
const char* engine_build_type();

/// True when the library was compiled with interprocedural optimization.
bool engine_build_lto();

}  // namespace issr
