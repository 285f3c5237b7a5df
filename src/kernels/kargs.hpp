// Shared kernel-construction helpers: variant tags, staged-operand
// argument blocks, streamer setup emission, and accumulator policy.
//
// Kernels are built per input instance by the host (addresses and trip
// counts are baked as immediates), mirroring the paper's hand-written
// assembly kernels (§III-B).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "isa/assembler.hpp"
#include "sparse/fiber.hpp"

namespace issr::kernels {

/// Kernel variants evaluated by the paper (§III-B).
enum class Variant {
  kBase,  ///< stock RISC-V optimized baseline
  kSsr,   ///< SSR streaming of the sparse values, scalar indirection
  kIssr,  ///< SSR values stream + ISSR indirection stream + FREP
};

const char* to_string(Variant v);

/// Accumulator count for the staggered FREP loop: the 16-bit kernel runs
/// at up to 0.80 fmadd/cycle and needs 4 accumulators to cover the FMA
/// latency; the 32-bit kernel runs at up to 0.67 and needs only 3
/// (§III-B: "due to its lower peak utilization, the 32-bit kernel
/// requires fewer accumulators").
constexpr unsigned accumulators_for(sparse::IndexWidth width) {
  return width == sparse::IndexWidth::kU16 ? 4 : 3;
}

/// FREP stagger mask staggering rd and rs3 (the accumulator fields of
/// fmadd.d), the paper Listing 1's 0b1001.
inline constexpr unsigned kStaggerRdRs3 = 0b1001;

// --- Streamer setup emission -------------------------------------------------
/// Emit CSR writes configuring `lane` for a 1-D affine stream and arm it.
/// Clobbers t5/t6.
void emit_affine_job(isa::Assembler& a, unsigned lane, addr_t base,
                     std::uint64_t count, std::int64_t stride_bytes = 8,
                     bool write = false, std::uint64_t reps = 0);

/// Emit CSR writes configuring `lane` for an indirection stream over
/// `count` indices of the given width and arm it. Clobbers t5/t6.
void emit_indirect_job(isa::Assembler& a, unsigned lane, addr_t data_base,
                       addr_t idx_base, std::uint64_t count,
                       sparse::IndexWidth width, unsigned idx_shift = 0,
                       bool write = false);

/// Enable / disable stream-register redirection.
void emit_ssr_enable(isa::Assembler& a);
/// Synchronize with the FPU subsystem, then disable redirection.
void emit_sync_and_disable(isa::Assembler& a);
/// FPU-subsystem sync only.
void emit_fpss_sync(isa::Assembler& a);
/// Cluster barrier.
void emit_barrier(isa::Assembler& a);
/// Halt the core.
void emit_halt(isa::Assembler& a);

/// Zero-initialize `count` accumulator registers starting at `first`.
void emit_zero_accs(isa::Assembler& a, isa::Freg first, unsigned count);

/// Emit a pairwise reduction tree of `count` accumulators starting at
/// `first` into scratch registers starting at `scratch`; returns the
/// register holding the sum.
isa::Freg emit_reduction(isa::Assembler& a, isa::Freg first, unsigned count,
                         isa::Freg scratch);

}  // namespace issr::kernels
