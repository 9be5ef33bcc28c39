// Compressed-sparse-row (CSR) matrix of doubles.
//
// This is the workhorse for the n×n adjacency matrix W. The two operations
// that matter for the paper are:
//   * Multiply (SpMM): W × dense(n×k) in O(nnz · k) — the inner step of both
//     label propagation (Eq. 4) and the factorized path summation (Alg. 4.4);
//   * SpGemm: W × W as an explicit sparse product — only used by the
//     *unfactorized* baseline of Fig. 5b to show why materializing Wℓ is
//     infeasible.

#ifndef FGR_MATRIX_SPARSE_H_
#define FGR_MATRIX_SPARSE_H_

#include <cstdint>
#include <vector>

#include "matrix/dense.h"
#include "util/check.h"
#include "util/status.h"

namespace fgr {

// A (row, col, value) entry used to assemble CSR matrices.
struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double value = 0.0;
};

// A non-owning view of a contiguous block of CSR rows — the unit the
// out-of-core estimation path streams through the SpMM and summarization
// kernels. The view covers global rows [first_row, first_row + rows) of a
// matrix whose full column space stays addressable, so Multiply gathers
// from every row of the dense operand while writing only the panel's
// output rows. SparseMatrix::Multiply runs on a whole-matrix view of its
// own storage, so a streamed panel takes exactly the in-core kernel:
// per-row results are bit-identical, and only sharded reductions
// reassociate.
class CsrPanelView {
 public:
  using Index = std::int64_t;

  // `row_ptr` has num_rows + 1 entries and may carry an arbitrary base
  // offset (a slice of a full CSR row_ptr keeps its global values);
  // col_idx / values hold the panel's own entries, indexed by
  // row_ptr[r] - row_ptr[0]. `values` may be nullptr, which means every
  // entry has weight exactly 1.0 (a 0/1 adjacency matrix) — the kernels
  // then skip the values load entirely. This is what lets the mmap'd
  // .fgrbin reader (data/mmap_fgrbin.h) serve unit-weight caches without
  // materializing an nnz-sized values array: multiplying by a literal 1.0
  // is bit-identical to multiplying by a stored 1.0.
  CsrPanelView(Index first_row, Index num_rows, Index num_cols,
               const Index* row_ptr, const Index* col_idx,
               const double* values)
      : first_row_(first_row), rows_(num_rows), cols_(num_cols),
        row_ptr_(row_ptr), col_idx_(col_idx), values_(values) {
    FGR_CHECK_GE(first_row, 0);
    FGR_CHECK_GE(num_rows, 0);
    FGR_CHECK_GE(num_cols, 0);
  }

  Index first_row() const { return first_row_; }
  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return row_ptr_[rows_] - row_ptr_[0]; }

  // True when the view carries no values array (every weight is 1.0).
  bool unit_weights() const { return values_ == nullptr; }

  // Writes rows [first_row, first_row + rows) of out = matrix × x, zeroing
  // exactly those rows first; other rows of `out` are untouched. Checks
  // x.rows() == cols() and that `out` is tall enough. Row-parallel with
  // nnz-balanced shards; each output row is accumulated by one worker in
  // serial order, so results are bit-identical at any thread count.
  void MultiplyInto(const DenseMatrix& x, DenseMatrix* out) const;

  // Row sums of the panel (weighted degrees), written to out[0..rows()).
  void RowSumsInto(double* out) const;

  // Same sums with each row added left to right, the order
  // SparseMatrix::RowSums (and so Graph::degrees()) uses; the weighted
  // RowSumsInto kernel reassociates them.
  void OrderedRowSumsInto(double* out) const;

  // y[first_row .. first_row + rows) = panel × x for a vector; other
  // entries of `y` are untouched. Checks x.size() == cols() and that `y`
  // is long enough. Row-parallel and bit-reproducible across thread counts
  // like MultiplyInto. SparseMatrix::MultiplyVector runs on a whole-matrix
  // view of this kernel, so the ρ(W) Lanczos iteration over a mapped cache
  // and over an in-core matrix takes the identical code path.
  void MultiplyVectorInto(const std::vector<double>& x,
                          std::vector<double>* y) const;

  struct Symmetry {
    bool symmetric = true;      // SparseMatrix::IsSymmetric's answer
    bool zero_diagonal = true;  // every stored diagonal entry is 0.0
  };

  // Exact symmetry test of a whole-matrix view (first_row() == 0) in one
  // O(nnz) merge, no per-entry search: every stored (i, j, v) must have
  // At(j, i) == v, an absent entry reading 0.0 (so an unmirrored explicit
  // 0.0 passes and a NaN never does). Each lower entry (i, j) meets row j's
  // ascending upper entries through a per-row cursor; sharded over the
  // target rows j by nnz, with an early-out. A non-square view fails.
  Symmetry CheckSymmetry() const;

 private:
  Index first_row_;
  Index rows_;
  Index cols_;
  const Index* row_ptr_;
  const Index* col_idx_;
  const double* values_;
};

class SparseMatrix {
 public:
  using Index = std::int64_t;

  SparseMatrix() : rows_(0), cols_(0) {}

  // Assembles a CSR matrix from triplets; duplicate (row, col) entries are
  // summed. Triplets may arrive in any order.
  static SparseMatrix FromTriplets(Index rows, Index cols,
                                   std::vector<Triplet> triplets);

  // Adopts pre-assembled CSR arrays without copying or re-sorting — the
  // O(read) path for the .fgrbin binary cache. The arrays are validated
  // (monotone row_ptr bracketed by [0, nnz], strictly ascending in-range
  // columns per row, matching lengths) because they typically come from
  // disk; a malformed input yields an error Status, never a crash.
  static Result<SparseMatrix> FromCsr(Index rows, Index cols,
                                      std::vector<Index> row_ptr,
                                      std::vector<Index> col_idx,
                                      std::vector<double> values);

  // FromCsr's row checks over raw arrays, also run by MappedFgrBin::Open:
  // row_ptr rises monotonically from 0 to nnz and each row's columns are
  // strictly ascending in [0, cols). Sharded; the lowest-row error wins.
  static Status ValidateCsr(Index rows, Index cols, Index nnz,
                            const Index* row_ptr, const Index* col_idx);

  // Diagonal matrix with the given entries.
  static SparseMatrix Diagonal(const std::vector<double>& diagonal);

  static SparseMatrix Identity(Index n);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(values_.size()); }

  const std::vector<Index>& row_ptr() const { return row_ptr_; }
  const std::vector<Index>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  // out = this × x. Checks x.rows() == cols(); `out` is resized/zeroed
  // internally and must not alias x. Row-parallel under the ParallelFor
  // backend with nnz-balanced shard boundaries (ShardByWeight over row_ptr),
  // so skewed degree sequences do not serialize on the hub rows; results are
  // bit-identical for any thread count because each output row is
  // accumulated by exactly one worker in serial order.
  void Multiply(const DenseMatrix& x, DenseMatrix* out) const;

  // Convenience wrapper returning a fresh matrix.
  DenseMatrix Multiply(const DenseMatrix& x) const;

  // y = this × x for a vector. Checks x.size() == cols(); row-parallel and
  // bit-reproducible across thread counts like Multiply.
  void MultiplyVector(const std::vector<double>& x,
                      std::vector<double>* y) const;

  // Row sums; for a 0/1 symmetric adjacency matrix these are node degrees.
  std::vector<double> RowSums() const;

  // Entry lookup by binary search within the row. O(log nnz_row).
  double At(Index row, Index col) const;

  // Non-owning views over this matrix's storage: the whole matrix, or the
  // row panel [row_begin, row_end). The view stays valid only while this
  // matrix is alive and unmodified.
  CsrPanelView View() const;
  CsrPanelView PanelView(Index row_begin, Index row_end) const;

  // Structural + numeric symmetry test (exact; CsrPanelView::CheckSymmetry).
  bool IsSymmetric() const;

  // Scales all stored values by `factor`.
  void Scale(double factor);

  // Overwrites every stored value with `value` (the structure is unchanged).
  // Graph::FromEdges uses this to collapse duplicate unweighted edges that
  // FromTriplets summed back to weight 1 without a second assembly pass.
  void SetAllValues(double value);

  DenseMatrix ToDense() const;

 private:
  Index rows_;
  Index cols_;
  std::vector<Index> row_ptr_;   // size rows_ + 1
  std::vector<Index> col_idx_;   // size nnz, sorted within each row
  std::vector<double> values_;   // size nnz
};

// Explicit sparse × sparse product (row-wise with a dense accumulator).
// Memory and time are proportional to the *output* nnz, which grows roughly
// by a factor of the average degree per application — exactly the blow-up the
// paper's factorized summation avoids.
SparseMatrix SpGemm(const SparseMatrix& a, const SparseMatrix& b);

// a + scale·b for matrices with identical shapes.
SparseMatrix SpAdd(const SparseMatrix& a, const SparseMatrix& b,
                   double scale = 1.0);

}  // namespace fgr

#endif  // FGR_MATRIX_SPARSE_H_
