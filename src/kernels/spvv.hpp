// Sparse-dense dot product (SpVV) kernels, §III-B and Listing 1: the
// sparse vector's values stream through SSR lane ft0, the ISSR lane ft1
// indirects into the dense operand at the sparse indices, and an FREP
// hardware loop with register staggering keeps a single fmadd.d per
// nonzero in flight. BASE and SSR variants implement the paper's
// hand-optimized scalar loops (9 and 7 instructions per nonzero).
#pragma once

#include "common/types.hpp"
#include "isa/program.hpp"
#include "kernels/kargs.hpp"
#include "sparse/fiber.hpp"

namespace issr::kernels {

struct SpvvArgs {
  addr_t a_vals = 0;  ///< sparse values (f64, contiguous)
  addr_t a_idcs = 0;  ///< sparse indices (packed at `width`)
  std::uint32_t nnz = 0;
  addr_t b = 0;       ///< dense operand base
  addr_t result = 0;  ///< f64 result slot
  sparse::IndexWidth width = sparse::IndexWidth::kU32;
};

/// Build a complete single-core SpVV program (ends with ecall).
isa::Program build_spvv(Variant variant, const SpvvArgs& args);

}  // namespace issr::kernels
