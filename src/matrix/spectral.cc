#include "matrix/spectral.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/check.h"
#include "util/random.h"

namespace fgr {
namespace {

// Number of eigenvalues of the symmetric tridiagonal matrix with diagonal
// `a` and off-diagonal `b` (b.size() == a.size() - 1) that lie below `x`:
// the count of negative pivots in the LDLᵀ factorization of T − x·I
// (Sturm's theorem). A zero pivot is nudged to the smallest negative
// normal, so the next pivot stays finite or becomes +inf, which still
// counts correctly.
std::size_t CountBelow(const std::vector<double>& a,
                       const std::vector<double>& b, double x) {
  std::size_t count = 0;
  double pivot = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    pivot = a[i] - x - (i == 0 ? 0.0 : b[i - 1] * b[i - 1] / pivot);
    if (pivot == 0.0) pivot = -std::numeric_limits<double>::min();
    if (pivot < 0.0) ++count;
  }
  return count;
}

// The `index`-th smallest eigenvalue (0-based) of the tridiagonal (a, b),
// bisected to machine resolution inside its Gershgorin interval; exact for
// a 1×1 matrix.
double TridiagonalEigenvalue(const std::vector<double>& a,
                             const std::vector<double>& b, std::size_t index) {
  if (a.size() == 1) return a[0];
  double lo = a[0];
  double hi = a[0];
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double radius = (i > 0 ? std::fabs(b[i - 1]) : 0.0) +
                          (i < b.size() ? std::fabs(b[i]) : 0.0);
    lo = std::min(lo, a[i] - radius);
    hi = std::max(hi, a[i] + radius);
  }
  // Widen so that lo lies strictly below and hi strictly above the
  // spectrum: then CountBelow(lo) <= index < CountBelow(hi) holds from
  // the start and every halving keeps it.
  const double pad = 2.0 * std::numeric_limits<double>::epsilon() *
                         std::max(std::fabs(lo), std::fabs(hi)) +
                     std::numeric_limits<double>::min();
  lo -= pad;
  hi += pad;
  for (;;) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    if (CountBelow(a, b, mid) > index) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo + 0.5 * (hi - lo);
}

// Σ term(i) over i in [0, size), calling term in index order. The sum is
// kept in four interleaved lanes so consecutive additions do not wait on
// each other; the order is fixed, so the sum never depends on the thread
// count.
template <typename TermFn>
double SweepSum(std::size_t size, TermFn&& term) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    lanes[0] += term(i);
    lanes[1] += term(i + 1);
    lanes[2] += term(i + 2);
    lanes[3] += term(i + 3);
  }
  for (; i < size; ++i) lanes[i % 4] += term(i);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Symmetric Lanczos over an opaque y = A·x callback: the one iteration
// body behind every SpectralRadius overload. `multiply` overwrites all of
// *y (sized n) and returns false when it could not form the product; the
// iteration then stops at once, making no further multiply.
//
// Step j extends the tridiagonal T with α_j = q_jᵀ·A·q_j and
// β_j = ‖A·q_j − α_j·q_j − β_{j−1}·q_{j−1}‖ (the three-term recurrence,
// without reorthogonalization: lost orthogonality only repeats converged
// Ritz values; it never moves the extreme ones outside the spectrum by
// more than rounding). The estimate is the larger magnitude of T's
// extreme eigenvalues.
template <typename MultiplyFn>
double Lanczos(std::int64_t n, MultiplyFn&& multiply,
               const SpectralRadiusOptions& options) {
  if (n == 0) return 0.0;
  const auto size = static_cast<std::size_t>(n);
  // Three n-vectors, rotated every step: `q` holds q_{j−1}, `r` the
  // residual r_{j−1} whose normalization r_{j−1} / ‖r_{j−1}‖ is q_j, and
  // `y` the product. The start residual is the seeded random vector and
  // q_{−1} = 0. Multiplying the unnormalized r and scaling the product
  // folds the normalization into the first of the two serial sweeps.
  std::vector<double> q(size, 0.0);
  std::vector<double> r(size);
  std::vector<double> y(size);
  Rng rng(options.seed);
  double sum_sq = SweepSum(size, [&](std::size_t i) {
    r[i] = rng.Uniform(-1.0, 1.0);
    return r[i] * r[i];
  });
  double norm = std::sqrt(sum_sq);  // ‖r_{j−1}‖, which is also β_{j−1}
  FGR_CHECK_GT(norm, 0.0);

  std::vector<double> alphas;
  std::vector<double> betas;
  double radius = 0.0;
  for (int step = 0; step < options.max_iterations; ++step) {
    if (!multiply(r, &y)) break;
    // Sweep 1: q_j = r / norm in place, y = A·q_j − β_{j−1}·q_{j−1} and
    // α_j = q_jᵀ·y. At step 0, q_{−1} = 0 drops the middle term.
    const double inv_norm = 1.0 / norm;
    const double alpha = SweepSum(size, [&](std::size_t i) {
      r[i] *= inv_norm;
      y[i] = y[i] * inv_norm - norm * q[i];
      return r[i] * y[i];
    });
    // Sweep 2: r_j = y − α_j·q_j and its squared norm.
    sum_sq = SweepSum(size, [&](std::size_t i) {
      y[i] -= alpha * r[i];
      return y[i] * y[i];
    });
    std::swap(q, r);  // q = q_j; r = q_{j−1}, free
    std::swap(r, y);  // r = r_j; y free for the next product

    alphas.push_back(alpha);
    const double next = std::max(
        std::fabs(TridiagonalEigenvalue(alphas, betas, 0)),
        std::fabs(TridiagonalEigenvalue(alphas, betas, alphas.size() - 1)));
    const bool settled =
        step > 0 && std::fabs(next - radius) <= options.tolerance * next;
    radius = next;
    norm = std::sqrt(sum_sq);
    // β_j = 0 to working precision: the Krylov space is invariant and T's
    // eigenvalues are exact eigenvalues of A.
    if (settled || norm <= std::numeric_limits<double>::epsilon() * radius) {
      break;
    }
    betas.push_back(norm);
  }
  return radius;
}

}  // namespace

double SpectralRadius(const SparseMatrix& matrix,
                      const SpectralRadiusOptions& options) {
  FGR_CHECK_EQ(matrix.rows(), matrix.cols());
  return SpectralRadius(matrix.View(), options);
}

double SpectralRadius(const CsrPanelView& view,
                      const SpectralRadiusOptions& options) {
  WholeMatrixSource whole(view);
  return SpectralRadius(whole, options).value();
}

Result<double> SpectralRadius(PanelSource& source,
                              const SpectralRadiusOptions& options) {
  FGR_TRACE_SPAN("spectral/radius");
  Status pass = Status::Ok();
  std::int64_t multiplies = 0;
  const double radius = Lanczos(
      source.num_nodes(),
      [&](const std::vector<double>& x, std::vector<double>* y) {
        ++multiplies;
        pass = source.ForEachPanel([&](const CsrPanelView& panel) {
          panel.MultiplyVectorInto(x, y);
        });
        return pass.ok();
      },
      options);
  obs::TraceCounter("spectral/multiplies", static_cast<double>(multiplies));
  if (!pass.ok()) return pass;
  return radius;
}

double SpectralRadius(const DenseMatrix& matrix,
                      const SpectralRadiusOptions& options) {
  FGR_CHECK_EQ(matrix.rows(), matrix.cols());
  const auto n = matrix.rows();
  return Lanczos(
      n,
      [&matrix, n](const std::vector<double>& x, std::vector<double>* y) {
        for (DenseMatrix::Index i = 0; i < n; ++i) {
          const double* row = matrix.RowPtr(i);
          double sum = 0.0;
          for (DenseMatrix::Index j = 0; j < n; ++j) {
            sum += row[j] * x[static_cast<std::size_t>(j)];
          }
          (*y)[static_cast<std::size_t>(i)] = sum;
        }
        return true;
      },
      options);
}

}  // namespace fgr
