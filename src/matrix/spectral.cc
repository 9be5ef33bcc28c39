#include "matrix/spectral.h"

#include <cmath>
#include <vector>

#include "util/check.h"
#include "util/random.h"

namespace fgr {
namespace {

double Norm2(const std::vector<double>& x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}

// The power-iteration loop over an opaque y = A·x callback, shared by the
// sparse and dense radii: same seed, same start vector, same convergence
// test.
template <typename MultiplyFn>
double PowerIterate(std::int64_t n, MultiplyFn&& multiply,
                    const PowerIterationOptions& options) {
  if (n == 0) return 0.0;
  Rng rng(options.seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.Uniform(-1.0, 1.0);
  double norm = Norm2(x);
  FGR_CHECK_GT(norm, 0.0);
  for (double& v : x) v /= norm;

  std::vector<double> y;
  double lambda = 0.0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    multiply(x, &y);
    const double y_norm = Norm2(y);
    if (y_norm == 0.0) return 0.0;  // x in the null space: radius estimate 0
    // Rayleigh-style estimate |λ| = ‖Ax‖ for normalized x; valid for the
    // symmetric matrices this routine is documented for.
    const double next = y_norm;
    for (std::size_t i = 0; i < y.size(); ++i) x[i] = y[i] / y_norm;
    if (std::fabs(next - lambda) <= options.tolerance * std::fabs(next)) {
      return next;
    }
    lambda = next;
  }
  return lambda;
}

}  // namespace

double SpectralRadius(const SparseMatrix& matrix,
                      const PowerIterationOptions& options) {
  FGR_CHECK_EQ(matrix.rows(), matrix.cols());
  return SpectralRadius(matrix.View(), options);
}

double SpectralRadius(const CsrPanelView& view,
                      const PowerIterationOptions& options) {
  WholeMatrixSource whole(view);
  return SpectralRadius(whole, options).value();
}

Result<double> SpectralRadius(PanelSource& source,
                              const PowerIterationOptions& options) {
  Status pass = Status::Ok();
  const double radius = PowerIterate(
      source.num_nodes(),
      [&](const std::vector<double>& x, std::vector<double>* y) {
        // After a failed pass y stays zero, which ends the iteration.
        y->assign(x.size(), 0.0);
        if (!pass.ok()) return;
        pass = source.ForEachPanel([&](const CsrPanelView& panel) {
          panel.MultiplyVectorInto(x, y);
        });
      },
      options);
  if (!pass.ok()) return pass;
  return radius;
}

double SpectralRadius(const DenseMatrix& matrix,
                      const PowerIterationOptions& options) {
  FGR_CHECK_EQ(matrix.rows(), matrix.cols());
  const auto n = matrix.rows();
  return PowerIterate(
      n,
      [&matrix, n](const std::vector<double>& x, std::vector<double>* y) {
        y->assign(static_cast<std::size_t>(n), 0.0);
        for (DenseMatrix::Index i = 0; i < n; ++i) {
          const double* row = matrix.RowPtr(i);
          double sum = 0.0;
          for (DenseMatrix::Index j = 0; j < n; ++j) {
            sum += row[j] * x[static_cast<std::size_t>(j)];
          }
          (*y)[static_cast<std::size_t>(i)] = sum;
        }
      },
      options);
}

}  // namespace fgr
