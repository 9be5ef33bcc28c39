// Spectral-radius estimation by power iteration.
//
// LinBP's convergence condition (Eq. 2 in the paper) requires the spectral
// radii of both the adjacency matrix W (n×n, sparse, symmetric) and the
// centered compatibility matrix H̃ (k×k, dense, symmetric). For symmetric
// matrices the spectral radius equals the largest absolute eigenvalue, which
// power iteration recovers from a random start. The paper uses PyAMG's
// approximate routine for the same purpose; power iteration computes the
// identical quantity.

#ifndef FGR_MATRIX_SPECTRAL_H_
#define FGR_MATRIX_SPECTRAL_H_

#include <cstdint>

#include "matrix/dense.h"
#include "matrix/panel_source.h"
#include "matrix/sparse.h"
#include "util/status.h"

namespace fgr {

struct PowerIterationOptions {
  int max_iterations = 200;
  double tolerance = 1e-7;
  std::uint64_t seed = 12345;
};

// Spectral radius of a symmetric sparse matrix. Returns 0 for empty matrices.
double SpectralRadius(const SparseMatrix& matrix,
                      const PowerIterationOptions& options = {});

// Same, over a whole-matrix CsrPanelView (first_row 0, rows == cols) — the
// form the serving layer uses on mmap'd .fgrbin caches. Both overloads run
// the PanelSource overload on the single-panel source.
double SpectralRadius(const CsrPanelView& view,
                      const PowerIterationOptions& options = {});

// Same, over a matrix seen one panel at a time: each power-iteration
// multiply is one pass in which every panel writes its own rows of y, so
// a streamed source yields the in-core radius bit for bit. Fails with the
// source's read error.
Result<double> SpectralRadius(PanelSource& source,
                              const PowerIterationOptions& options = {});

// Spectral radius of a symmetric dense matrix (intended for k×k H).
double SpectralRadius(const DenseMatrix& matrix,
                      const PowerIterationOptions& options = {});

}  // namespace fgr

#endif  // FGR_MATRIX_SPECTRAL_H_
