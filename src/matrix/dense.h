// Row-major dense matrix of doubles.
//
// Used for the n×k belief/label matrices (k is the number of classes, small)
// and for the k×k compatibility and statistics matrices. The class keeps the
// operation set deliberately small and explicit; the heavy n-scale work goes
// through SparseMatrix::Multiply (SpMM).
//
// Storage contract: the buffer is 64-byte aligned (AlignedAllocator), and
// rows are laid out at a fixed `stride()` ≥ cols() doubles. The default
// construction is dense (stride == cols, buffer size rows·cols — the shape
// every serializer and bit-comparison relies on). WithPaddedStride() rounds
// the stride up to a full cache line (8 doubles) so every row starts
// 64-byte aligned; the pad lanes are storage only — no operation reads
// them as data, and matrices that escape the process (serialized gold
// labels, .fgrsum sidecars) stay unpadded. All element-wise operations
// iterate row-wise in row-major order, so padded and unpadded operands
// produce bit-identical results.

#ifndef FGR_MATRIX_DENSE_H_
#define FGR_MATRIX_DENSE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/check.h"

namespace fgr {

class DenseMatrix {
 public:
  using Index = std::int64_t;
  using Buffer = std::vector<double, AlignedAllocator<double, 64>>;

  // Zero-initialized rows×cols matrix. An empty (0×0) matrix is allowed and
  // is the default.
  DenseMatrix() : rows_(0), cols_(0), stride_(0) {}
  DenseMatrix(Index rows, Index cols)
      : rows_(rows), cols_(cols), stride_(cols),
        data_(static_cast<std::size_t>(rows * cols), 0.0) {
    FGR_CHECK_GE(rows, 0);
    FGR_CHECK_GE(cols, 0);
  }

  // Zero-initialized matrix whose row stride is cols rounded up to a
  // multiple of 8 doubles (one cache line), so every row starts 64-byte
  // aligned. Use for internal scratch on SIMD hot paths only: data() then
  // includes the pad lanes, so padded matrices must not be serialized or
  // bit-compared against dense ones.
  static DenseMatrix WithPaddedStride(Index rows, Index cols);

  // Builds from nested braces: DenseMatrix::FromRows({{1, 2}, {3, 4}}).
  static DenseMatrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);
  static DenseMatrix Identity(Index n);
  // Matrix with every entry equal to `value`.
  static DenseMatrix Constant(Index rows, Index cols, double value);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  // Doubles between consecutive row starts; stride() == cols() unless the
  // matrix was built with WithPaddedStride.
  Index stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double operator()(Index i, Index j) const {
    FGR_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * stride_ + j)];
  }
  double& operator()(Index i, Index j) {
    FGR_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * stride_ + j)];
  }

  const double* RowPtr(Index i) const {
    FGR_DCHECK(i >= 0 && i < rows_);
    return data_.data() + i * stride_;
  }
  double* RowPtr(Index i) {
    FGR_DCHECK(i >= 0 && i < rows_);
    return data_.data() + i * stride_;
  }

  // The raw buffer start (row 0), with no row-range check — the kernel
  // drivers use this to form base pointers for empty panels.
  const double* raw() const { return data_.data(); }
  double* raw() { return data_.data(); }

  // The whole backing buffer, pad lanes included for padded matrices.
  // Serializers and bit-for-bit comparisons use this on dense (unpadded)
  // matrices, where it is exactly the rows·cols row-major payload.
  const Buffer& data() const { return data_; }

  void SetZero();
  void Fill(double value);

  // this += other / this -= other / this *= scalar. Dimensions must match.
  void Add(const DenseMatrix& other);
  void Sub(const DenseMatrix& other);
  void Scale(double factor);
  // this += factor * other (axpy).
  void AddScaled(const DenseMatrix& other, double factor);
  // Adds `value` to every entry ("broadcasting" in the paper's notation).
  void AddConstant(double value);

  DenseMatrix Transpose() const;

  // Dense matrix product this(r×c) * other(c×p). Intended for small (k-sized)
  // matrices; n-scale products go through SparseMatrix.
  DenseMatrix Multiply(const DenseMatrix& other) const;
  // The same product written into *out, bit-identical to Multiply(). It
  // allocates nothing when *out is already r×p (it is reshaped otherwise),
  // which is what the DCE objective's workspace relies on. `out` must not
  // alias either operand.
  void MultiplyInto(const DenseMatrix& other, DenseMatrix* out) const;

  // this^p for a square matrix; p >= 0 (p == 0 gives identity).
  DenseMatrix Power(int p) const;

  double FrobeniusNorm() const;
  double MaxAbs() const;
  double Sum() const;
  std::vector<double> RowSums() const;
  std::vector<double> ColSums() const;

  // Index of the maximum entry in row i; the smallest index wins ties so
  // labeling is deterministic.
  Index ArgmaxInRow(Index i) const;

  // Multi-line human-readable rendering (tests, debugging, bench output).
  std::string ToString(int precision = 4) const;

 private:
  Index rows_;
  Index cols_;
  Index stride_;
  Buffer data_;
};

// ‖a − b‖_F without materializing the difference.
double FrobeniusDistance(const DenseMatrix& a, const DenseMatrix& b);

// True when ‖a − b‖_max <= tol.
bool AllClose(const DenseMatrix& a, const DenseMatrix& b, double tol = 1e-9);

}  // namespace fgr

#endif  // FGR_MATRIX_DENSE_H_
