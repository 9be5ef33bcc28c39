// Shared SIMD kernel bodies, parameterized by a vector-policy struct.
//
// The AVX2 and AVX-512 translation units each define a policy type
// (vector width, load/store, masked tail load/store, FMA, gather,
// horizontal reduce) and instantiate these templates for the three
// primitives (SpMM, SpMV, weighted row sums); the kernel logic — iteration
// order, register blocking — lives here once.
// Only the per-TU policy files are compiled with extended ISA flags, so
// this header must stay intrinsic-free.
//
// Register blocking: k ∈ {2, 5, 10} dominates real workloads, so every
// k ≤ kMaxSpecializedK gets an SpMM specialization whose accumulators live
// in vector registers across the whole per-row entry loop; a full vector
// covers lanes [0, kLanes) and a masked tail covers the remainder, so no
// load or store ever touches memory past column k. Larger k falls back to a
// generic strip-mined loop that streams through the output row per entry.
//
// Numeric notes (see kernels.h for the cross-variant contract): entry
// iteration order matches the scalar kernels exactly; FMA fuses each
// multiply-add into one rounding. For unit weights the kernels add x
// directly — fma(1.0, x, acc) rounds x·1.0 + acc once, which is exactly
// add(x, acc), so unit and all-ones-weighted panels agree bit for bit.

#ifndef FGR_MATRIX_KERNELS_KERNELS_SIMD_BODY_H_
#define FGR_MATRIX_KERNELS_KERNELS_SIMD_BODY_H_

#include "matrix/kernels/kernels.h"

namespace fgr {
namespace kernels {

inline constexpr int kMaxSpecializedK = 12;

// ---- SpMM: out rows overwritten with panel × x ----------------------------

template <typename P, int K, bool kUnit>
void SpmmRowsK(const Csr& csr, Index row_begin, Index row_end, const double* x,
               Index x_stride, double* out, Index out_stride) {
  constexpr int kL = static_cast<int>(P::kLanes);
  constexpr int NV = K / kL;
  constexpr int TAIL = K % kL;
  constexpr int NACC = NV + (TAIL != 0 ? 1 : 0);
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    typename P::Vec acc[NACC];
    for (int c = 0; c < NACC; ++c) acc[c] = P::Zero();
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    for (Index p = begin; p < end; ++p) {
      const double* x_row = x + csr.col_idx[p] * x_stride;
      if constexpr (kUnit) {
        for (int c = 0; c < NV; ++c) {
          acc[c] = P::Add(acc[c], P::LoadU(x_row + c * kL));
        }
        if constexpr (TAIL != 0) {
          acc[NV] = P::Add(acc[NV], P::LoadTail(x_row + NV * kL, TAIL));
        }
      } else {
        const typename P::Vec v = P::Set1(csr.values[p]);
        for (int c = 0; c < NV; ++c) {
          acc[c] = P::Fmadd(v, P::LoadU(x_row + c * kL), acc[c]);
        }
        if constexpr (TAIL != 0) {
          acc[NV] = P::Fmadd(v, P::LoadTail(x_row + NV * kL, TAIL), acc[NV]);
        }
      }
    }
    double* out_row = out + i * out_stride;
    for (int c = 0; c < NV; ++c) P::StoreU(out_row + c * kL, acc[c]);
    if constexpr (TAIL != 0) P::StoreTail(out_row + NV * kL, TAIL, acc[NV]);
  }
}

template <typename P, bool kUnit>
void SpmmRowsGeneric(const Csr& csr, Index row_begin, Index row_end,
                     const double* x, Index x_stride, double* out,
                     Index out_stride, Index k) {
  constexpr Index kL = P::kLanes;
  const Index full = k - k % kL;
  const Index tail = k - full;
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    double* out_row = out + i * out_stride;
    for (Index j = 0; j < k; ++j) out_row[j] = 0.0;
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    for (Index p = begin; p < end; ++p) {
      const double* x_row = x + csr.col_idx[p] * x_stride;
      if constexpr (kUnit) {
        for (Index j = 0; j < full; j += kL) {
          P::StoreU(out_row + j, P::Add(P::LoadU(out_row + j),
                                        P::LoadU(x_row + j)));
        }
        if (tail != 0) {
          P::StoreTail(out_row + full, tail,
                       P::Add(P::LoadTail(out_row + full, tail),
                              P::LoadTail(x_row + full, tail)));
        }
      } else {
        const typename P::Vec v = P::Set1(csr.values[p]);
        for (Index j = 0; j < full; j += kL) {
          P::StoreU(out_row + j,
                    P::Fmadd(v, P::LoadU(x_row + j), P::LoadU(out_row + j)));
        }
        if (tail != 0) {
          P::StoreTail(out_row + full, tail,
                       P::Fmadd(v, P::LoadTail(x_row + full, tail),
                                P::LoadTail(out_row + full, tail)));
        }
      }
    }
  }
}

// ---- SpMV and weighted row sums -------------------------------------------

template <typename P, bool kUnit>
void SpmvRows(const Csr& csr, Index row_begin, Index row_end, const double* x,
              double* y) {
  constexpr Index kL = P::kLanes;
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    typename P::Vec acc = P::Zero();
    Index p = begin;
    for (; p + kL <= end; p += kL) {
      const typename P::Vec gathered = P::Gather(x, csr.col_idx + p);
      if constexpr (kUnit) {
        acc = P::Add(acc, gathered);
      } else {
        acc = P::Fmadd(P::LoadU(csr.values + p), gathered, acc);
      }
    }
    double sum = P::ReduceAdd(acc);
    for (; p < end; ++p) {
      if constexpr (kUnit) {
        sum += x[csr.col_idx[p]];
      } else {
        sum += csr.values[p] * x[csr.col_idx[p]];
      }
    }
    y[i] = sum;
  }
}

template <typename P>
void RowSumsRows(const Csr& csr, Index row_begin, Index row_end, double* out) {
  constexpr Index kL = P::kLanes;
  const Index base = csr.row_ptr[0];
  for (Index i = row_begin; i < row_end; ++i) {
    const Index begin = csr.row_ptr[i] - base;
    const Index end = csr.row_ptr[i + 1] - base;
    typename P::Vec acc = P::Zero();
    Index p = begin;
    for (; p + kL <= end; p += kL) acc = P::Add(acc, P::LoadU(csr.values + p));
    double sum = P::ReduceAdd(acc);
    for (; p < end; ++p) sum += csr.values[p];
    out[i] = sum;
  }
}

// ---- Per-policy dispatchers (the KernelTable entry points) ----------------

template <typename P>
void SpmmDispatch(const Csr& csr, Index row_begin, Index row_end,
                  const double* x, Index x_stride, double* out,
                  Index out_stride, Index k) {
  const bool unit = csr.values == nullptr;
  switch (k) {
#define FGR_SPMM_CASE(K)                                                     \
  case K:                                                                    \
    if (unit) {                                                              \
      SpmmRowsK<P, K, true>(csr, row_begin, row_end, x, x_stride, out,       \
                            out_stride);                                     \
    } else {                                                                 \
      SpmmRowsK<P, K, false>(csr, row_begin, row_end, x, x_stride, out,      \
                             out_stride);                                    \
    }                                                                        \
    return;
    FGR_SPMM_CASE(1)
    FGR_SPMM_CASE(2)
    FGR_SPMM_CASE(3)
    FGR_SPMM_CASE(4)
    FGR_SPMM_CASE(5)
    FGR_SPMM_CASE(6)
    FGR_SPMM_CASE(7)
    FGR_SPMM_CASE(8)
    FGR_SPMM_CASE(9)
    FGR_SPMM_CASE(10)
    FGR_SPMM_CASE(11)
    FGR_SPMM_CASE(12)
#undef FGR_SPMM_CASE
    default:
      if (unit) {
        SpmmRowsGeneric<P, true>(csr, row_begin, row_end, x, x_stride, out,
                                 out_stride, k);
      } else {
        SpmmRowsGeneric<P, false>(csr, row_begin, row_end, x, x_stride, out,
                                  out_stride, k);
      }
  }
}

template <typename P>
void SpmvDispatch(const Csr& csr, Index row_begin, Index row_end,
                  const double* x, double* y) {
  if (csr.values == nullptr) {
    SpmvRows<P, true>(csr, row_begin, row_end, x, y);
  } else {
    SpmvRows<P, false>(csr, row_begin, row_end, x, y);
  }
}

template <typename P>
void RowSumsDispatch(const Csr& csr, Index row_begin, Index row_end,
                     double* out) {
  RowSumsRows<P>(csr, row_begin, row_end, out);
}

}  // namespace kernels
}  // namespace fgr

#endif  // FGR_MATRIX_KERNELS_KERNELS_SIMD_BODY_H_
