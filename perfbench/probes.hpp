// Component micro-loops for the traced run: each drives one simulator
// unit through its public tick() for a fixed number of cycles inside one
// span, so the host cost per simulated cycle of that unit can be read off
// the span (ns / work). Inputs are fixed, not seeded: the loops measure
// the unit, not a workload.
#pragma once

#include <cstdint>

#include "spans.hpp"

namespace perfbench {

/// mem::Tcdm: 8 masters on 32 banks, addresses chosen so pairs of
/// masters collide on a bank every cycle. Returns the conflict count (a
/// check that the loop really arbitrates).
std::uint64_t probe_tcdm(Spans& spans, std::uint64_t cycles);

/// ssr::Lane (ISSR) over ideal memory: repeated 16-bit indirection jobs
/// drained one element per cycle. Returns the elements popped.
std::uint64_t probe_lane(Spans& spans, std::uint64_t cycles);

/// core::Fpss: repeated FREP loops over a staggered fmadd body. Returns
/// the FP compute issues.
std::uint64_t probe_fpss(Spans& spans, std::uint64_t cycles);

}  // namespace perfbench
