// Spectral-radius estimation by symmetric Lanczos iteration.
//
// LinBP's convergence condition (Eq. 2 in the paper) requires the spectral
// radii of both the adjacency matrix W (n×n, sparse, symmetric) and the
// centered compatibility matrix H̃ (k×k, dense, symmetric). For symmetric
// matrices the spectral radius is the largest absolute eigenvalue, so it is
// max(|λ_min|, |λ_max|). The paper takes it from PyAMG's approximate
// spectral-radius routine, which on symmetric input runs a Lanczos
// iteration; this is the same method.
//
// From a seeded random start, each step does one multiply y = A·q and
// extends the three-term recurrence that builds the tridiagonal Lanczos
// matrix T_j. The extreme eigenvalues of T_j (Ritz values, found by
// Sturm-count bisection) converge to λ_min and λ_max from inside the
// spectrum. Convergence is geometric in the square root of the relative
// gap, where power iteration's is linear in the gap. On a sparse graph this
// means a few dozen multiplies instead of close to a hundred. The iteration
// stops when successive estimates agree to `tolerance` relative, or
// exactly when the Krylov space becomes invariant (β_j = 0).
//
// Every overload runs the same iteration body. The O(n) vector updates are
// serial and the multiply is the row-parallel, bit-reproducible
// CsrPanelView::MultiplyVectorInto, so the radius is bit-identical across
// thread counts and between streamed and in-core sources.

#ifndef FGR_MATRIX_SPECTRAL_H_
#define FGR_MATRIX_SPECTRAL_H_

#include <cstdint>

#include "matrix/dense.h"
#include "matrix/panel_source.h"
#include "matrix/sparse.h"
#include "util/status.h"

namespace fgr {

struct SpectralRadiusOptions {
  int max_iterations = 200;  // cap on multiplies (Lanczos steps)
  double tolerance = 1e-7;   // relative change between successive estimates
  std::uint64_t seed = 12345;
};

// Spectral radius of a symmetric sparse matrix. Returns 0 for empty matrices.
double SpectralRadius(const SparseMatrix& matrix,
                      const SpectralRadiusOptions& options = {});

// Same, over a whole-matrix CsrPanelView (first_row 0, rows == cols) — the
// form the serving layer uses on mmap'd .fgrbin caches. Both overloads run
// the PanelSource overload on the single-panel source.
double SpectralRadius(const CsrPanelView& view,
                      const SpectralRadiusOptions& options = {});

// Same, over a matrix seen one panel at a time: each Lanczos multiply is
// one pass in which every panel writes its own rows of y, so a streamed
// source yields the in-core radius bit for bit. Fails with the source's
// read error, and a failed pass is the last one made. Traced as the
// `spectral/radius` span with a `spectral/multiplies` counter sample.
Result<double> SpectralRadius(PanelSource& source,
                              const SpectralRadiusOptions& options = {});

// Spectral radius of a symmetric dense matrix (intended for k×k H).
double SpectralRadius(const DenseMatrix& matrix,
                      const SpectralRadiusOptions& options = {});

}  // namespace fgr

#endif  // FGR_MATRIX_SPECTRAL_H_
