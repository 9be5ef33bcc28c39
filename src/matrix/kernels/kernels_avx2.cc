// AVX2 + FMA kernel variant. This TU (alone) is compiled with
// -mavx2 -mfma; it must only be *called* after runtime dispatch confirms
// the CPU supports both features.

#include "matrix/kernels/kernels.h"

#ifdef FGR_HAVE_AVX2

#include <immintrin.h>

#include <cstdint>

#include "matrix/kernels/kernels_simd_body.h"

namespace fgr {
namespace kernels {
namespace {

// Lane masks for tails of n ∈ [1, 3] doubles: load from the table so lanes
// [0, n) read -1 (enabled) and the rest 0. Masked lanes are never touched
// in memory, so tail loads at a row's end cannot fault past column k.
alignas(32) constexpr std::int64_t kTailMaskTable[8] = {-1, -1, -1, -1,
                                                        0,  0,  0,  0};

struct Avx2Policy {
  using Vec = __m256d;
  static constexpr Index kLanes = 4;

  static Vec Zero() { return _mm256_setzero_pd(); }
  static Vec Set1(double v) { return _mm256_set1_pd(v); }
  static Vec LoadU(const double* p) { return _mm256_loadu_pd(p); }
  static void StoreU(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec Fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }

  static __m256i TailMask(Index n) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMaskTable + (4 - n)));
  }
  static Vec LoadTail(const double* p, Index n) {
    return _mm256_maskload_pd(p, TailMask(n));
  }
  static void StoreTail(double* p, Index n, Vec v) {
    _mm256_maskstore_pd(p, TailMask(n), v);
  }

  static Vec Gather(const double* base, const Index* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return _mm256_i64gather_pd(base, vi, 8);
  }

  static double ReduceAdd(Vec v) {
    // Fixed tree: (lane0 + lane2) + (lane1 + lane3) ... deterministic.
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
  }
};

void Spmm(const Csr& csr, Index row_begin, Index row_end, const double* x,
          Index x_stride, double* out, Index out_stride, Index k) {
  SpmmDispatch<Avx2Policy>(csr, row_begin, row_end, x, x_stride, out,
                           out_stride, k);
}

void Spmv(const Csr& csr, Index row_begin, Index row_end, const double* x,
          double* y) {
  SpmvDispatch<Avx2Policy>(csr, row_begin, row_end, x, y);
}

void RowSums(const Csr& csr, Index row_begin, Index row_end, double* out) {
  RowSumsDispatch<Avx2Policy>(csr, row_begin, row_end, out);
}

}  // namespace

const KernelTable& Avx2KernelTable() {
  static const KernelTable table{Isa::kAvx2, &Spmm, &Spmv, &RowSums};
  return table;
}

}  // namespace kernels
}  // namespace fgr

#endif  // FGR_HAVE_AVX2
