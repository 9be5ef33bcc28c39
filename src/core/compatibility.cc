#include "core/compatibility.h"

#include <cmath>

#include "util/check.h"

namespace fgr {

std::int64_t NumFreeParameters(std::int64_t k) {
  FGR_CHECK_GE(k, 1);
  return k * (k - 1) / 2;
}

DenseMatrix CompatibilityFromParameters(const std::vector<double>& params,
                                        std::int64_t k) {
  DenseMatrix h;
  CompatibilityFromParameters(params, k, &h);
  return h;
}

void CompatibilityFromParameters(const std::vector<double>& params,
                                 std::int64_t k, DenseMatrix* out) {
  FGR_CHECK_EQ(static_cast<std::int64_t>(params.size()),
               NumFreeParameters(k));
  if (out->rows() != k || out->cols() != k) *out = DenseMatrix(k, k);
  DenseMatrix& h = *out;
  if (k == 1) {
    h(0, 0) = 1.0;
    return;
  }
  // Free block: rows/cols 0..k-2, stored row-wise over the lower triangle.
  std::size_t index = 0;
  for (std::int64_t i = 0; i + 1 < k; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      h(i, j) = params[index];
      h(j, i) = params[index];
      ++index;
    }
  }
  // Last column and row from unit row sums; corner from unit sum of the
  // last row (equivalently Eq. 6's 2-k+Σ formula).
  double corner = 1.0;
  for (std::int64_t i = 0; i + 1 < k; ++i) {
    double row_sum = 0.0;
    for (std::int64_t j = 0; j + 1 < k; ++j) row_sum += h(i, j);
    h(i, k - 1) = 1.0 - row_sum;
    h(k - 1, i) = h(i, k - 1);
    corner -= h(k - 1, i);
  }
  h(k - 1, k - 1) = corner;
}

std::vector<double> ParametersFromCompatibility(const DenseMatrix& h) {
  FGR_CHECK_EQ(h.rows(), h.cols());
  const std::int64_t k = h.rows();
  std::vector<double> params;
  params.reserve(static_cast<std::size_t>(NumFreeParameters(k)));
  for (std::int64_t i = 0; i + 1 < k; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      params.push_back(h(i, j));
    }
  }
  return params;
}

std::vector<double> ProjectGradientToParameters(
    const DenseMatrix& entry_gradient) {
  std::vector<double> projected;
  ProjectGradientToParameters(entry_gradient, &projected);
  return projected;
}

void ProjectGradientToParameters(const DenseMatrix& entry_gradient,
                                 std::vector<double>* projected) {
  FGR_CHECK_EQ(entry_gradient.rows(), entry_gradient.cols());
  const std::int64_t k = entry_gradient.rows();
  const DenseMatrix& g = entry_gradient;
  projected->resize(static_cast<std::size_t>(NumFreeParameters(k)));
  double* out = projected->data();
  const std::int64_t last = k - 1;
  for (std::int64_t i = 0; i + 1 < k; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      if (i == j) {
        // S_ii: +1 at (i,i), -1 at (i,last) and (last,i), +1 at (last,last).
        *out++ = g(i, i) - g(i, last) - g(last, i) + g(last, last);
      } else {
        // S_ij (i≠j): ±1 pattern over the 2×2 blocks it perturbs.
        *out++ = g(i, j) + g(j, i) - g(i, last) - g(last, j) - g(j, last) -
                 g(last, i) + 2.0 * g(last, last);
      }
    }
  }
}

bool IsSymmetric(const DenseMatrix& h, double tol) {
  if (h.rows() != h.cols()) return false;
  for (std::int64_t i = 0; i < h.rows(); ++i) {
    for (std::int64_t j = i + 1; j < h.cols(); ++j) {
      if (std::fabs(h(i, j) - h(j, i)) > tol) return false;
    }
  }
  return true;
}

bool IsDoublyStochastic(const DenseMatrix& h, double tol) {
  if (h.rows() != h.cols()) return false;
  for (double sum : h.RowSums()) {
    if (std::fabs(sum - 1.0) > tol) return false;
  }
  for (double sum : h.ColSums()) {
    if (std::fabs(sum - 1.0) > tol) return false;
  }
  return true;
}

DenseMatrix MakeSkewCompatibility(std::int64_t k, double skew) {
  FGR_CHECK_GE(k, 1);
  FGR_CHECK_GT(skew, 0.0);
  DenseMatrix h(k, k);
  const double denom = static_cast<double>(k - 1) + skew;
  if (k == 1) {
    h(0, 0) = 1.0;
    return h;
  }
  // Pairing permutation: classes (0,1), (2,3), ... attract; odd leftover
  // class is homophilous.
  for (std::int64_t i = 0; i < k; ++i) {
    std::int64_t partner = (i % 2 == 0) ? i + 1 : i - 1;
    if (partner >= k) partner = i;  // leftover class pairs with itself
    for (std::int64_t j = 0; j < k; ++j) {
      h(i, j) = (j == partner ? skew : 1.0) / denom;
    }
  }
  return h;
}

DenseMatrix CenterCompatibility(const DenseMatrix& h) {
  FGR_CHECK_EQ(h.rows(), h.cols());
  DenseMatrix centered = h;
  centered.AddConstant(-1.0 / static_cast<double>(h.rows()));
  return centered;
}

DenseMatrix UniformCompatibility(std::int64_t k) {
  return DenseMatrix::Constant(k, k, 1.0 / static_cast<double>(k));
}

}  // namespace fgr
