#include "sparse/reference.hpp"

#include <cassert>

namespace issr::sparse {

double ref_spvv(const SparseFiber& a, const DenseVector& b) {
  assert(a.dim() <= b.size());
  double acc = 0.0;
  for (std::uint32_t j = 0; j < a.nnz(); ++j) {
    acc += a.val(j) * b[a.idx(j)];
  }
  return acc;
}

DenseVector ref_csrmv(const CsrMatrix& a, const DenseVector& x) {
  assert(a.cols() <= x.size());
  DenseVector y(a.rows());
  for (std::uint32_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::uint32_t j = a.row_begin(i); j < a.row_end(i); ++j) {
      acc += a.vals()[j] * x[a.idcs()[j]];
    }
    y[i] = acc;
  }
  return y;
}

DenseMatrix ref_csrmm(const CsrMatrix& a, const DenseMatrix& b) {
  assert(a.cols() <= b.rows());
  DenseMatrix y(a.rows(), b.cols());
  for (std::uint32_t i = 0; i < a.rows(); ++i) {
    for (std::size_t c = 0; c < b.cols(); ++c) {
      double acc = 0.0;
      for (std::uint32_t j = a.row_begin(i); j < a.row_end(i); ++j) {
        acc += a.vals()[j] * b.at(a.idcs()[j], c);
      }
      y.at(i, c) = acc;
    }
  }
  return y;
}

double ref_codebook_dot(const CodebookVector& a, const DenseVector& b) {
  assert(a.indices.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.indices.size(); ++i) {
    acc += a.codebook[a.indices[i]] * b[i];
  }
  return acc;
}

DenseVector ref_gather(const DenseVector& src,
                       const std::vector<std::uint32_t>& idcs) {
  DenseVector out(idcs.size());
  for (std::size_t i = 0; i < idcs.size(); ++i) {
    assert(idcs[i] < src.size());
    out[i] = src[idcs[i]];
  }
  return out;
}

DenseVector ref_scatter(const DenseVector& src,
                        const std::vector<std::uint32_t>& idcs,
                        std::size_t dim) {
  assert(src.size() == idcs.size());
  DenseVector out(dim);
  for (std::size_t i = 0; i < idcs.size(); ++i) {
    assert(idcs[i] < dim);
    out[idcs[i]] = src[i];
  }
  return out;
}

void ref_axpy_sparse_onto_dense(const SparseFiber& a, DenseVector& y) {
  assert(a.dim() <= y.size());
  for (std::uint32_t j = 0; j < a.nnz(); ++j) {
    y[a.idx(j)] += a.val(j);
  }
}

}  // namespace issr::sparse
