// Golden host-side kernels. Every simulated kernel variant (BASE / SSR /
// ISSR) is validated bit-for-bit-compatible (within FP reassociation
// tolerance) against these references.
#pragma once

#include "sparse/csf.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/fiber.hpp"
#include "sparse/generate.hpp"

namespace issr::sparse {

/// Sparse-dense dot product: sum_j a.vals[j] * b[a.idcs[j]].
double ref_spvv(const SparseFiber& a, const DenseVector& b);

/// CSR matrix-vector product y = A * x.
DenseVector ref_csrmv(const CsrMatrix& a, const DenseVector& x);

/// CSR matrix times dense matrix: Y = A * B (B row-major, any ld).
DenseMatrix ref_csrmm(const CsrMatrix& a, const DenseMatrix& b);

/// Dense dot product of a codebook-compressed vector with a dense vector.
double ref_codebook_dot(const CodebookVector& a, const DenseVector& b);

/// Gather: out[i] = src[idcs[i]].
DenseVector ref_gather(const DenseVector& src,
                       const std::vector<std::uint32_t>& idcs);

/// Scatter: out[idcs[i]] = src[i] into a zero-initialized vector of size
/// `dim`. Duplicate indices take the last write (stream order).
DenseVector ref_scatter(const DenseVector& src,
                        const std::vector<std::uint32_t>& idcs,
                        std::size_t dim);

/// Sparse accumulate-onto-dense: y[a.idcs[j]] += a.vals[j] (§III-C).
void ref_axpy_sparse_onto_dense(const SparseFiber& a, DenseVector& y);

}  // namespace issr::sparse
