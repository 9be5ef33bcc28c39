// Vectorized kernel backend for the CsrPanelView primitives.
//
// Every estimate/label/serve path funnels through three inner loops: SpMM
// (W × dense n×k), SpMV, and weighted row sums. W is symmetric, so no path
// needs a transpose product. This layer provides those loops as
// flat-pointer kernels in three variants — portable scalar, AVX2+FMA,
// AVX-512F — behind a one-time runtime dispatch, so `sparse.cc` keeps
// owning sharding, shape checks, and determinism policy while the
// innermost k-wide loops run at the width the CPU offers.
//
// Dispatch order (resolved once, then cached):
//   1. SetKernelIsaForTest() override, when a test pinned a variant;
//   2. the FGR_KERNEL environment variable: scalar | avx2 | avx512 | auto
//      (unknown values warn and mean auto; a variant that is not compiled
//      in or not supported by this CPU warns and falls back);
//   3. auto: the widest variant both compiled in (FGR_WITH_SIMD, per-TU
//      -mavx2/-mavx512f) and reported by the CPU at runtime.
//
// Numeric contract (the PR 2 determinism contract, extended per variant):
//   * the scalar kernels are bit-identical to the historical loops in
//     sparse.cc — same iteration order, same mul-then-add rounding;
//   * the SIMD kernels keep the same per-row entry order but use FMA
//     (single rounding) for SpMM and lane-parallel accumulators for
//     SpMV/row sums, so results agree with scalar only to
//     kKernelVariantTolerance — exact iteration order is preserved for
//     SpMM (FMA rounding is the only delta), and SpMV/row-sum
//     reductions additionally reassociate across lanes;
//   * for a FIXED variant, every kernel stays deterministic and the
//     sharding-level guarantees (bit-identical row-partitioned kernels at
//     any thread count, shard-order reductions) are untouched.
//
// All kernels tolerate `values == nullptr` (unit weights): multiplying by
// a literal 1.0 is bit-identical to multiplying by a stored 1.0 in every
// variant, so unit-weight and all-ones-weighted panels agree bit for bit.

#ifndef FGR_MATRIX_KERNELS_KERNELS_H_
#define FGR_MATRIX_KERNELS_KERNELS_H_

#include <cstdint>
#include <string>

namespace fgr {
namespace kernels {

using Index = std::int64_t;

// Agreement bound between kernel variants for one kernel application, as a
// relative tolerance against the magnitude of the accumulated row. FMA
// rounding and lane reassociation perturb a handful of ulps per
// accumulation step; 1e-12 is ~4 decimal orders above double epsilon and
// pinned (not derived) so a real numeric regression trips the tests.
inline constexpr double kKernelVariantTolerance = 1e-12;

enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// A CSR row panel in the CsrPanelView convention: `row_ptr` spans the
// panel's rows plus one and may carry an arbitrary base offset (a slice of
// a full row_ptr keeps its global values); col_idx / values hold the
// panel's own entries, indexed by row_ptr[r] - row_ptr[0]. `values` may be
// nullptr (unit weights). Columns are strictly ascending within a row.
struct Csr {
  const Index* row_ptr = nullptr;
  const Index* col_idx = nullptr;
  const double* values = nullptr;
};

// out[i·out_stride .. +k) = Σ_p values[p] · x[col_idx[p]·x_stride .. +k)
// for each panel row i in [row_begin, row_end), overwriting (not adding).
// `x` is the row-0 pointer of the dense operand (indexed by global
// column), `out` the pointer for panel row 0.
using SpmmFn = void (*)(const Csr& csr, Index row_begin, Index row_end,
                        const double* x, Index x_stride, double* out,
                        Index out_stride, Index k);

// y[i] = Σ_p values[p] · x[col_idx[p]] for each panel row i in
// [row_begin, row_end). `x` is indexed by global column, `y` by panel row.
using SpmvFn = void (*)(const Csr& csr, Index row_begin, Index row_end,
                        const double* x, double* y);

// out[i] = Σ_p values[p] for each panel row i in [row_begin, row_end).
// Only called with values != nullptr — the unit-weight entry-count fast
// path stays in the driver.
using RowSumsFn = void (*)(const Csr& csr, Index row_begin, Index row_end,
                           double* out);

struct KernelTable {
  Isa isa = Isa::kScalar;
  SpmmFn spmm = nullptr;
  SpmvFn spmv = nullptr;
  RowSumsFn row_sums = nullptr;
};

// The dispatched table. First call resolves (test override → FGR_KERNEL →
// widest supported); later calls return the cached table. Thread-safe.
const KernelTable& ActiveKernels();

// The variant ActiveKernels() dispatches to.
Isa ActiveIsa();

// "scalar" / "avx2" / "avx512".
const char* IsaName(Isa isa);

// True when the variant's translation unit was compiled into this binary
// (FGR_WITH_SIMD plus compiler support).
bool IsaCompiled(Isa isa);

// True when the variant is compiled in AND this CPU reports the feature
// (AVX2+FMA for kAvx2, AVX-512F for kAvx512). kScalar is always available.
bool IsaAvailable(Isa isa);

// The table for one specific variant; CHECK-fails unless IsaAvailable.
// Tests use this to compare variants side by side without re-dispatching.
const KernelTable& KernelsFor(Isa isa);

// Pins ActiveKernels() to `isa` for the rest of the process (tests only).
// Returns false — and changes nothing — when the variant is unavailable.
bool SetKernelIsaForTest(Isa isa);

// Clears the test pin; the next ActiveKernels() re-resolves from the
// environment and CPU.
void ResetKernelIsaForTest();

// One line per variant: name, compiled?, cpu-supported?, dispatched?
// (What `fgr_cli kernels` prints and fgrd logs at startup.)
std::string DescribeKernels();

}  // namespace kernels
}  // namespace fgr

#endif  // FGR_MATRIX_KERNELS_KERNELS_H_
