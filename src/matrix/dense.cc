#include "matrix/dense.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fgr {

DenseMatrix DenseMatrix::WithPaddedStride(Index rows, Index cols) {
  DenseMatrix result;
  FGR_CHECK_GE(rows, 0);
  FGR_CHECK_GE(cols, 0);
  result.rows_ = rows;
  result.cols_ = cols;
  // 8 doubles = 64 bytes: rounding the stride to a full cache line keeps
  // every row start on the buffer's 64-byte alignment.
  result.stride_ = cols == 0 ? 0 : (cols + 7) / 8 * 8;
  result.data_.assign(static_cast<std::size_t>(rows * result.stride_), 0.0);
  return result;
}

DenseMatrix DenseMatrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const Index r = static_cast<Index>(rows.size());
  FGR_CHECK_GT(r, 0);
  const Index c = static_cast<Index>(rows.begin()->size());
  DenseMatrix result(r, c);
  Index i = 0;
  for (const auto& row : rows) {
    FGR_CHECK_EQ(static_cast<Index>(row.size()), c)
        << "ragged initializer row " << i;
    Index j = 0;
    for (double value : row) result(i, j++) = value;
    ++i;
  }
  return result;
}

DenseMatrix DenseMatrix::Identity(Index n) {
  DenseMatrix result(n, n);
  for (Index i = 0; i < n; ++i) result(i, i) = 1.0;
  return result;
}

DenseMatrix DenseMatrix::Constant(Index rows, Index cols, double value) {
  DenseMatrix result(rows, cols);
  result.Fill(value);
  return result;
}

// Writing the pad lanes in SetZero/Fill is allowed (they are storage, not
// data); everything that *reads* must go row-wise below.
void DenseMatrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void DenseMatrix::Fill(double value) {
  for (Index i = 0; i < rows_; ++i) {
    double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) row[j] = value;
  }
}

void DenseMatrix::Add(const DenseMatrix& other) {
  FGR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (Index i = 0; i < rows_; ++i) {
    double* row = RowPtr(i);
    const double* o_row = other.RowPtr(i);
    for (Index j = 0; j < cols_; ++j) row[j] += o_row[j];
  }
}

void DenseMatrix::Sub(const DenseMatrix& other) {
  FGR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (Index i = 0; i < rows_; ++i) {
    double* row = RowPtr(i);
    const double* o_row = other.RowPtr(i);
    for (Index j = 0; j < cols_; ++j) row[j] -= o_row[j];
  }
}

void DenseMatrix::Scale(double factor) {
  for (Index i = 0; i < rows_; ++i) {
    double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) row[j] *= factor;
  }
}

void DenseMatrix::AddScaled(const DenseMatrix& other, double factor) {
  FGR_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (Index i = 0; i < rows_; ++i) {
    double* row = RowPtr(i);
    const double* o_row = other.RowPtr(i);
    for (Index j = 0; j < cols_; ++j) row[j] += factor * o_row[j];
  }
}

void DenseMatrix::AddConstant(double value) {
  for (Index i = 0; i < rows_; ++i) {
    double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) row[j] += value;
  }
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix result(cols_, rows_);
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = 0; j < cols_; ++j) result(j, i) = (*this)(i, j);
  }
  return result;
}

DenseMatrix DenseMatrix::Multiply(const DenseMatrix& other) const {
  DenseMatrix result;
  MultiplyInto(other, &result);
  return result;
}

void DenseMatrix::MultiplyInto(const DenseMatrix& other,
                               DenseMatrix* out) const {
  FGR_CHECK_EQ(cols_, other.rows_)
      << "dense multiply shape mismatch: " << rows_ << "x" << cols_ << " * "
      << other.rows_ << "x" << other.cols_;
  FGR_CHECK(out != this && out != &other) << "MultiplyInto output aliases";
  if (out->rows_ == rows_ && out->cols_ == other.cols_) {
    out->SetZero();
  } else {
    *out = DenseMatrix(rows_, other.cols_);
  }
  // i-k-j loop order keeps the inner loop contiguous in both inputs.
  for (Index i = 0; i < rows_; ++i) {
    double* out_row = out->RowPtr(i);
    const double* a_row = RowPtr(i);
    for (Index k = 0; k < cols_; ++k) {
      const double a = a_row[k];
      if (a == 0.0) continue;
      const double* b_row = other.RowPtr(k);
      for (Index j = 0; j < other.cols_; ++j) out_row[j] += a * b_row[j];
    }
  }
}

DenseMatrix DenseMatrix::Power(int p) const {
  FGR_CHECK_EQ(rows_, cols_) << "Power() requires a square matrix";
  FGR_CHECK_GE(p, 0);
  DenseMatrix result = Identity(rows_);
  // Plain repeated multiplication: p is tiny (path lengths <= ~10) and the
  // DCE gradient needs all intermediate powers anyway.
  for (int step = 0; step < p; ++step) result = result.Multiply(*this);
  return result;
}

double DenseMatrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (Index i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) sum += row[j] * row[j];
  }
  return std::sqrt(sum);
}

double DenseMatrix::MaxAbs() const {
  double best = 0.0;
  for (Index i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) best = std::max(best, std::fabs(row[j]));
  }
  return best;
}

double DenseMatrix::Sum() const {
  double sum = 0.0;
  for (Index i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) sum += row[j];
  }
  return sum;
}

std::vector<double> DenseMatrix::RowSums() const {
  std::vector<double> sums(static_cast<std::size_t>(rows_), 0.0);
  for (Index i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    double sum = 0.0;
    for (Index j = 0; j < cols_; ++j) sum += row[j];
    sums[static_cast<std::size_t>(i)] = sum;
  }
  return sums;
}

std::vector<double> DenseMatrix::ColSums() const {
  std::vector<double> sums(static_cast<std::size_t>(cols_), 0.0);
  for (Index i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (Index j = 0; j < cols_; ++j) sums[static_cast<std::size_t>(j)] += row[j];
  }
  return sums;
}

DenseMatrix::Index DenseMatrix::ArgmaxInRow(Index i) const {
  FGR_CHECK(i >= 0 && i < rows_);
  FGR_CHECK_GT(cols_, 0);
  const double* row = RowPtr(i);
  Index best = 0;
  for (Index j = 1; j < cols_; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

std::string DenseMatrix::ToString(int precision) const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  for (Index i = 0; i < rows_; ++i) {
    out << (i == 0 ? "[" : " ");
    for (Index j = 0; j < cols_; ++j) {
      out << (j == 0 ? "[" : ", ") << (*this)(i, j);
    }
    out << "]" << (i + 1 == rows_ ? "]" : "\n");
  }
  return out.str();
}

double FrobeniusDistance(const DenseMatrix& a, const DenseMatrix& b) {
  FGR_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double sum = 0.0;
  for (DenseMatrix::Index i = 0; i < a.rows(); ++i) {
    const double* pa = a.RowPtr(i);
    const double* pb = b.RowPtr(i);
    for (DenseMatrix::Index j = 0; j < a.cols(); ++j) {
      const double diff = pa[j] - pb[j];
      sum += diff * diff;
    }
  }
  return std::sqrt(sum);
}

bool AllClose(const DenseMatrix& a, const DenseMatrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (DenseMatrix::Index i = 0; i < a.rows(); ++i) {
    for (DenseMatrix::Index j = 0; j < a.cols(); ++j) {
      if (std::fabs(a(i, j) - b(i, j)) > tol) return false;
    }
  }
  return true;
}

}  // namespace fgr
