// Portable scalar kernels — the reference variant.
//
// These loops are transcribed from the historical CsrPanelView inner loops
// and must stay bit-identical to them: same iteration order, separate
// multiply and add (no FMA contraction — the build targets base x86-64 for
// this TU), accumulation in source order. The SIMD variants are tested
// against this table under kKernelVariantTolerance, and
// FGR_KERNEL=scalar pins production behavior to it.

#include "matrix/kernels/kernels.h"

namespace fgr {
namespace kernels {
namespace {

// The weight accessor is a template parameter so unit-weight panels
// (values == nullptr) get a loop with no values load at all; 1.0·x == x
// exactly, so both instantiations produce identical bits.
template <typename ValueAt>
void SpmmImpl(const Csr& csr, Index row_begin, Index row_end, const double* x,
              Index x_stride, double* out, Index out_stride, Index k,
              ValueAt value_at) {
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    double* out_row = out + i * out_stride;
    for (Index j = 0; j < k; ++j) out_row[j] = 0.0;
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    for (Index p = begin; p < end; ++p) {
      const double v = value_at(p);
      const double* x_row = x + csr.col_idx[p] * x_stride;
      for (Index j = 0; j < k; ++j) out_row[j] += v * x_row[j];
    }
  }
}

void Spmm(const Csr& csr, Index row_begin, Index row_end, const double* x,
          Index x_stride, double* out, Index out_stride, Index k) {
  if (csr.values == nullptr) {
    SpmmImpl(csr, row_begin, row_end, x, x_stride, out, out_stride, k,
             [](Index) { return 1.0; });
  } else {
    SpmmImpl(csr, row_begin, row_end, x, x_stride, out, out_stride, k,
             [&csr](Index p) { return csr.values[p]; });
  }
}

template <typename ValueAt>
void SpmvImpl(const Csr& csr, Index row_begin, Index row_end, const double* x,
              double* y, ValueAt value_at) {
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    for (Index p = begin; p < end; ++p) {
      sum += value_at(p) * x[csr.col_idx[p]];
    }
    y[i] = sum;
  }
}

void Spmv(const Csr& csr, Index row_begin, Index row_end, const double* x,
          double* y) {
  if (csr.values == nullptr) {
    SpmvImpl(csr, row_begin, row_end, x, y, [](Index) { return 1.0; });
  } else {
    SpmvImpl(csr, row_begin, row_end, x, y,
             [&csr](Index p) { return csr.values[p]; });
  }
}

void RowSums(const Csr& csr, Index row_begin, Index row_end, double* out) {
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    double sum = 0.0;
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    for (Index p = begin; p < end; ++p) sum += csr.values[p];
    out[i] = sum;
  }
}

}  // namespace

const KernelTable& ScalarKernelTable() {
  static const KernelTable table{Isa::kScalar, &Spmm, &Spmv, &RowSums};
  return table;
}

}  // namespace kernels
}  // namespace fgr
