// Core scalar type aliases shared across the ISSR simulator.
#pragma once

#include <cstddef>
#include <cstdint>

namespace issr {

/// Byte address in the simulated physical address space.
using addr_t = std::uint64_t;

/// Simulation time in core clock cycles.
using cycle_t = std::uint64_t;

/// Raw 32-bit RISC-V instruction word.
using insn_word_t = std::uint32_t;

/// 64-bit data word, the native TCDM access granularity.
using word_t = std::uint64_t;

/// Width of a TCDM data word in bytes.
inline constexpr unsigned kWordBytes = 8;

/// log2 of the TCDM word width.
inline constexpr unsigned kWordBytesLog2 = 3;

/// Sentinel cycle meaning "no scheduled event": a unit reporting this from
/// its next_event() hook is idle until some other unit acts on it. When
/// every unit reports it, the engine's no-progress watchdog stops the run
/// (core/engine.hpp).
inline constexpr cycle_t kCycleNever = ~cycle_t{0};

}  // namespace issr
