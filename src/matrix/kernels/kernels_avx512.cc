// AVX-512F kernel variant. This TU (alone) is compiled with -mavx512f; it
// must only be *called* after runtime dispatch confirms the CPU supports
// AVX-512F. Masked zmm loads/stores and the fused multiply-add used here
// all sit inside the F foundation subset, so no further AVX-512 extensions
// are required.

#include "matrix/kernels/kernels.h"

#ifdef FGR_HAVE_AVX512

#include <immintrin.h>

#include "matrix/kernels/kernels_simd_body.h"

namespace fgr {
namespace kernels {
namespace {

struct Avx512Policy {
  using Vec = __m512d;
  static constexpr Index kLanes = 8;

  static Vec Zero() { return _mm512_setzero_pd(); }
  static Vec Set1(double v) { return _mm512_set1_pd(v); }
  static Vec LoadU(const double* p) { return _mm512_loadu_pd(p); }
  static void StoreU(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec Add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec Fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }

  static __mmask8 TailMask(Index n) {
    return static_cast<__mmask8>((1u << n) - 1u);
  }
  // Masked-off lanes are zeroed on load and never touched on store, so
  // tails at a row's end cannot fault or clobber past column k.
  static Vec LoadTail(const double* p, Index n) {
    return _mm512_maskz_loadu_pd(TailMask(n), p);
  }
  static void StoreTail(double* p, Index n, Vec v) {
    _mm512_mask_storeu_pd(p, TailMask(n), v);
  }

  static Vec Gather(const double* base, const Index* idx) {
    const __m512i vi = _mm512_loadu_si512(idx);
    return _mm512_i64gather_pd(vi, base, 8);
  }

  static double ReduceAdd(Vec v) { return _mm512_reduce_add_pd(v); }
};

void Spmm(const Csr& csr, Index row_begin, Index row_end, const double* x,
          Index x_stride, double* out, Index out_stride, Index k) {
  SpmmDispatch<Avx512Policy>(csr, row_begin, row_end, x, x_stride, out,
                             out_stride, k);
}

void Spmv(const Csr& csr, Index row_begin, Index row_end, const double* x,
          double* y) {
  SpmvDispatch<Avx512Policy>(csr, row_begin, row_end, x, y);
}

void RowSums(const Csr& csr, Index row_begin, Index row_end, double* out) {
  RowSumsDispatch<Avx512Policy>(csr, row_begin, row_end, out);
}

}  // namespace

const KernelTable& Avx512KernelTable() {
  static const KernelTable table{Isa::kAvx512, &Spmm, &Spmv, &RowSums};
  return table;
}

}  // namespace kernels
}  // namespace fgr

#endif  // FGR_HAVE_AVX512
