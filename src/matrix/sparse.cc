#include "matrix/sparse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <utility>

#include "matrix/kernels/kernels.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace fgr {

void CsrPanelView::MultiplyInto(const DenseMatrix& x, DenseMatrix* out) const {
  FGR_CHECK_EQ(cols_, x.rows()) << "SpMM shape mismatch";
  FGR_CHECK(out != nullptr);
  FGR_CHECK(out != &x) << "SpMM output must not alias the input";
  FGR_CHECK_EQ(out->cols(), x.cols());
  FGR_CHECK_GE(out->rows(), first_row_ + rows_);
  if (rows_ == 0) return;
  FGR_TRACE_SPAN("kernel/spmm");
  obs::AddCounter(obs::PipelineCounter::kKernelSpmmCalls, 1);
  const Index k = x.cols();
  // nnz-balanced shards: a row-count split stalls on hub rows of power-law
  // graphs; splitting by row_ptr prefix sums gives every worker the same
  // number of multiply-adds. Each row is still written by exactly one
  // worker, so results stay bit-identical at any thread count for a fixed
  // kernel variant (dispatch: matrix/kernels). Unit-weight views
  // (values_ == nullptr) take a kernel path with no values load at all;
  // 1.0·x == x exactly, so unit and weighted panels agree bit for bit.
  const kernels::KernelTable& kt = kernels::ActiveKernels();
  const kernels::Csr csr{row_ptr_, col_idx_, values_};
  const double* x_base = x.raw();
  const Index x_stride = x.stride();
  double* out_base = out->raw() + first_row_ * out->stride();
  const Index out_stride = out->stride();
  ParallelForShards(
      ShardByWeight(row_ptr_, rows_, NumShards(rows_)),
      [&](Index row_begin, Index row_end, int /*shard*/) {
        kt.spmm(csr, row_begin, row_end, x_base, x_stride, out_base,
                out_stride, k);
      });
}

void CsrPanelView::RowSumsInto(double* out) const {
  if (values_ == nullptr) {
    // Unit weights: the row sum is the entry count. Small integers are
    // exact doubles, so this matches summing explicit 1.0s bit for bit.
    // This fast path stays in the driver — the kernel tables only see
    // weighted panels.
    ParallelFor(0, rows_, [&](Index i) {
      out[i] = static_cast<double>(row_ptr_[i + 1] - row_ptr_[i]);
    });
    return;
  }
  if (rows_ == 0) return;
  FGR_TRACE_SPAN("kernel/row_sums");
  obs::AddCounter(obs::PipelineCounter::kKernelRowSumsCalls, 1);
  const kernels::KernelTable& kt = kernels::ActiveKernels();
  const kernels::Csr csr{row_ptr_, col_idx_, values_};
  ParallelForShards(ShardByWeight(row_ptr_, rows_, NumShards(rows_)),
                    [&](Index row_begin, Index row_end, int /*shard*/) {
                      kt.row_sums(csr, row_begin, row_end, out);
                    });
}

void CsrPanelView::OrderedRowSumsInto(double* out) const {
  if (rows_ == 0) return;
  if (values_ == nullptr) {
    RowSumsInto(out);  // entry counts are exact in any order
    return;
  }
  const Index base = row_ptr_[0];
  ParallelFor(0, rows_, [&](Index i) {
    double sum = 0.0;
    for (Index p = row_ptr_[i] - base; p < row_ptr_[i + 1] - base; ++p) {
      sum += values_[p];
    }
    out[i] = sum;
  });
}

void CsrPanelView::MultiplyVectorInto(const std::vector<double>& x,
                                      std::vector<double>* y) const {
  FGR_CHECK_EQ(cols_, static_cast<Index>(x.size())) << "SpMV shape mismatch";
  FGR_CHECK(y != nullptr);
  FGR_CHECK(y != &x) << "SpMV output must not alias the input";
  FGR_CHECK_GE(static_cast<Index>(y->size()), first_row_ + rows_);
  if (rows_ == 0) return;
  FGR_TRACE_SPAN("kernel/spmv");
  obs::AddCounter(obs::PipelineCounter::kKernelSpmvCalls, 1);
  const kernels::KernelTable& kt = kernels::ActiveKernels();
  const kernels::Csr csr{row_ptr_, col_idx_, values_};
  const double* x_base = x.data();
  double* y_base = y->data() + first_row_;
  ParallelForShards(ShardByWeight(row_ptr_, rows_, NumShards(rows_)),
                    [&](Index row_begin, Index row_end, int /*shard*/) {
                      kt.spmv(csr, row_begin, row_end, x_base, y_base);
                    });
}

CsrPanelView::Symmetry CsrPanelView::CheckSymmetry() const {
  FGR_CHECK_EQ(first_row_, 0) << "symmetry needs a whole-matrix view";
  if (rows_ != cols_) return {false, false};
  const Index base = row_ptr_[0];
  const auto col = [&](Index p) { return col_idx_[p - base]; };
  const auto value = [&](Index p) {
    return values_ == nullptr ? 1.0 : values_[p - base];
  };
  std::atomic<bool> symmetric{true};
  std::atomic<bool> zero_diagonal{true};
  // cursor[j]: row j's first upper entry (column > j) not yet matched.
  std::vector<Index> cursor(static_cast<std::size_t>(rows_));
  // Shard [lo, hi) owns target rows j in [lo, hi): it scans rows i >= lo in
  // ascending order for lower entries (i, j), so each target row's cursor
  // meets its mirrors in column order. False on the first mismatch.
  const auto merge = [&](Index lo, Index hi) {
    for (Index i = lo; i < rows_; ++i) {
      if (!symmetric.load(std::memory_order_relaxed)) return true;
      const Index row_end = row_ptr_[i + 1];
      Index p = row_ptr_[i];
      if (lo > 0) {  // one seek per row past the columns other shards own
        p = base + (std::lower_bound(col_idx_ + (p - base),
                                     col_idx_ + (row_end - base), lo) -
                    col_idx_);
      }
      for (; p < row_end && col(p) < std::min(i, hi); ++p) {
        Index& q = cursor[static_cast<std::size_t>(col(p))];
        const Index q_end = row_ptr_[col(p) + 1];
        // Upper entries of row j before column i have no mirror: the rows
        // that would hold one were scanned already.
        for (; q < q_end && col(q) < i; ++q) {
          if (value(q) != 0.0) return false;
        }
        const bool mirrored = q < q_end && col(q) == i;
        if (value(p) != (mirrored ? value(q++) : 0.0)) return false;
      }
      if (i >= hi) continue;
      // p is row i's diagonal slot; its upper entries start after it.
      if (p < row_end && col(p) == i) {
        const double d = value(p++);
        if (std::isnan(d)) return false;  // At(i, i) != itself
        if (d != 0.0) zero_diagonal.store(false, std::memory_order_relaxed);
      }
      cursor[static_cast<std::size_t>(i)] = p;
    }
    // Upper entries no mirror claimed must hold 0.0.
    for (Index j = lo; j < hi; ++j) {
      const Index j_end = row_ptr_[j + 1];
      for (Index q = cursor[static_cast<std::size_t>(j)]; q < j_end; ++q) {
        if (value(q) != 0.0) return false;
      }
    }
    return true;
  };
  ParallelForShards(ShardByWeight(row_ptr_, rows_, NumShards(rows_)),
                    [&](Index lo, Index hi, int /*shard*/) {
                      if (!merge(lo, hi)) symmetric.store(false);
                    });
  return {symmetric.load(), zero_diagonal.load()};
}

SparseMatrix SparseMatrix::FromTriplets(Index rows, Index cols,
                                        std::vector<Triplet> triplets) {
  FGR_CHECK_GE(rows, 0);
  FGR_CHECK_GE(cols, 0);
  SparseMatrix result;
  result.rows_ = rows;
  result.cols_ = cols;
  result.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);

  for (const Triplet& t : triplets) {
    FGR_CHECK(t.row >= 0 && t.row < rows) << "triplet row " << t.row;
    FGR_CHECK(t.col >= 0 && t.col < cols) << "triplet col " << t.col;
  }

  // Counting sort by row, then sort each row segment by column and merge
  // duplicates. This is O(nnz log d) and avoids a global sort.
  for (const Triplet& t : triplets) {
    ++result.row_ptr_[static_cast<std::size_t>(t.row) + 1];
  }
  for (std::size_t i = 1; i < result.row_ptr_.size(); ++i) {
    result.row_ptr_[i] += result.row_ptr_[i - 1];
  }
  std::vector<Index> cursor(result.row_ptr_.begin(),
                            result.row_ptr_.end() - 1);
  std::vector<Index> cols_tmp(triplets.size());
  std::vector<double> values_tmp(triplets.size());
  for (const Triplet& t : triplets) {
    const Index pos = cursor[static_cast<std::size_t>(t.row)]++;
    cols_tmp[static_cast<std::size_t>(pos)] = t.col;
    values_tmp[static_cast<std::size_t>(pos)] = t.value;
  }

  // Per-row sort + duplicate merge, compacted to the front of each row
  // segment. Rows are independent, so this phase is row-parallel; each row
  // runs the same serial code on per-shard scratch buffers (reused across
  // rows, cleared per row), keeping assembly bit-reproducible at any thread
  // count without per-row allocations.
  std::vector<Index> unique_counts(static_cast<std::size_t>(rows), 0);
  ParallelForShards(
      0, rows, NumShards(rows, /*grain=*/256),
      [&](Index row_begin, Index row_end, int /*shard*/) {
        std::vector<Index> order;
        std::vector<Index> merged_cols;
        std::vector<double> merged_values;
        for (Index r = row_begin; r < row_end; ++r) {
          const Index begin = result.row_ptr_[static_cast<std::size_t>(r)];
          const Index end = result.row_ptr_[static_cast<std::size_t>(r) + 1];
          if (begin == end) continue;
          order.resize(static_cast<std::size_t>(end - begin));
          for (Index i = begin; i < end; ++i) {
            order[static_cast<std::size_t>(i - begin)] = i;
          }
          std::sort(order.begin(), order.end(), [&](Index a, Index b) {
            return cols_tmp[static_cast<std::size_t>(a)] <
                   cols_tmp[static_cast<std::size_t>(b)];
          });
          merged_cols.clear();
          merged_values.clear();
          for (Index idx : order) {
            const Index c = cols_tmp[static_cast<std::size_t>(idx)];
            const double v = values_tmp[static_cast<std::size_t>(idx)];
            if (!merged_cols.empty() && merged_cols.back() == c) {
              merged_values.back() += v;  // merge duplicate
            } else {
              merged_cols.push_back(c);
              merged_values.push_back(v);
            }
          }
          std::copy(merged_cols.begin(), merged_cols.end(),
                    cols_tmp.begin() + static_cast<std::ptrdiff_t>(begin));
          std::copy(merged_values.begin(), merged_values.end(),
                    values_tmp.begin() + static_cast<std::ptrdiff_t>(begin));
          unique_counts[static_cast<std::size_t>(r)] =
              static_cast<Index>(merged_cols.size());
        }
      });

  std::vector<Index> final_row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  for (Index r = 0; r < rows; ++r) {
    final_row_ptr[static_cast<std::size_t>(r) + 1] =
        final_row_ptr[static_cast<std::size_t>(r)] +
        unique_counts[static_cast<std::size_t>(r)];
  }
  const Index total = final_row_ptr[static_cast<std::size_t>(rows)];
  result.col_idx_.resize(static_cast<std::size_t>(total));
  result.values_.resize(static_cast<std::size_t>(total));
  ParallelFor(
      0, rows,
      [&](Index r) {
        const Index src = result.row_ptr_[static_cast<std::size_t>(r)];
        const Index dst = final_row_ptr[static_cast<std::size_t>(r)];
        const Index count = unique_counts[static_cast<std::size_t>(r)];
        std::copy_n(cols_tmp.begin() + static_cast<std::ptrdiff_t>(src), count,
                    result.col_idx_.begin() + static_cast<std::ptrdiff_t>(dst));
        std::copy_n(values_tmp.begin() + static_cast<std::ptrdiff_t>(src),
                    count,
                    result.values_.begin() + static_cast<std::ptrdiff_t>(dst));
      },
      /*grain=*/1024);
  result.row_ptr_ = std::move(final_row_ptr);
  return result;
}

Result<SparseMatrix> SparseMatrix::FromCsr(Index rows, Index cols,
                                           std::vector<Index> row_ptr,
                                           std::vector<Index> col_idx,
                                           std::vector<double> values) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("CSR dimensions must be non-negative");
  }
  if (static_cast<Index>(row_ptr.size()) != rows + 1) {
    return Status::InvalidArgument(
        "CSR row_ptr must have rows + 1 entries, got " +
        std::to_string(row_ptr.size()));
  }
  const Index nnz = static_cast<Index>(col_idx.size());
  if (static_cast<Index>(values.size()) != nnz) {
    return Status::InvalidArgument("CSR col_idx/values length mismatch");
  }
  FGR_RETURN_IF_ERROR(
      ValidateCsr(rows, cols, nnz, row_ptr.data(), col_idx.data()));
  SparseMatrix result;
  result.rows_ = rows;
  result.cols_ = cols;
  result.row_ptr_ = std::move(row_ptr);
  result.col_idx_ = std::move(col_idx);
  result.values_ = std::move(values);
  return result;
}

Status SparseMatrix::ValidateCsr(Index rows, Index cols, Index nnz,
                                 const Index* row_ptr, const Index* col_idx) {
  if (row_ptr[0] != 0 || row_ptr[rows] != nnz) {
    return Status::InvalidArgument("CSR row_ptr must span [0, nnz]");
  }
  const int shards = NumShards(rows, /*grain=*/4096);
  std::vector<std::string> shard_error(static_cast<std::size_t>(shards));
  ParallelForShards(0, rows, shards, [&](Index lo, Index hi, int s) {
    std::string& error = shard_error[static_cast<std::size_t>(s)];
    for (Index r = lo; r < hi; ++r) {
      const Index begin = row_ptr[r];
      const Index end = row_ptr[r + 1];
      if (begin > end || begin < 0 || end > nnz) {
        error = "non-monotone row_ptr at row " + std::to_string(r);
        return;
      }
      Index previous = -1;
      for (Index p = begin; p < end; ++p) {
        const Index c = col_idx[p];
        if (c < 0 || c >= cols) {
          error = "column " + std::to_string(c) + " out of range at row " +
                  std::to_string(r);
          return;
        }
        if (c <= previous) {
          error = "columns not strictly ascending in row " + std::to_string(r);
          return;
        }
        previous = c;
      }
    }
  });
  for (const std::string& error : shard_error) {
    if (!error.empty()) return Status::InvalidArgument("CSR: " + error);
  }
  return Status::Ok();
}

SparseMatrix SparseMatrix::Diagonal(const std::vector<double>& diagonal) {
  const Index n = static_cast<Index>(diagonal.size());
  SparseMatrix result;
  result.rows_ = n;
  result.cols_ = n;
  result.row_ptr_.resize(static_cast<std::size_t>(n) + 1);
  result.col_idx_.resize(static_cast<std::size_t>(n));
  result.values_ = diagonal;
  for (Index i = 0; i <= n; ++i) {
    result.row_ptr_[static_cast<std::size_t>(i)] = i;
  }
  for (Index i = 0; i < n; ++i) {
    result.col_idx_[static_cast<std::size_t>(i)] = i;
  }
  return result;
}

SparseMatrix SparseMatrix::Identity(Index n) {
  return Diagonal(std::vector<double>(static_cast<std::size_t>(n), 1.0));
}

void SparseMatrix::Multiply(const DenseMatrix& x, DenseMatrix* out) const {
  FGR_CHECK_EQ(cols_, x.rows()) << "SpMM shape mismatch";
  FGR_CHECK(out != nullptr);
  FGR_CHECK(out != &x) << "SpMM output must not alias the input";
  if (out->rows() != rows_ || out->cols() != x.cols()) {
    *out = DenseMatrix(rows_, x.cols());
  }
  View().MultiplyInto(x, out);
}

DenseMatrix SparseMatrix::Multiply(const DenseMatrix& x) const {
  DenseMatrix out;
  Multiply(x, &out);
  return out;
}

void SparseMatrix::MultiplyVector(const std::vector<double>& x,
                                  std::vector<double>* y) const {
  FGR_CHECK_EQ(cols_, static_cast<Index>(x.size()))
      << "SpMV shape mismatch";
  FGR_CHECK(y != nullptr);
  FGR_CHECK(y != &x) << "SpMV output must not alias the input";
  y->assign(static_cast<std::size_t>(rows_), 0.0);
  View().MultiplyVectorInto(x, y);
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(static_cast<std::size_t>(rows_), 0.0);
  View().OrderedRowSumsInto(sums.data());
  return sums;
}

double SparseMatrix::At(Index row, Index col) const {
  FGR_CHECK(row >= 0 && row < rows_);
  FGR_CHECK(col >= 0 && col < cols_);
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row)];
  const auto end =
      col_idx_.begin() + row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

CsrPanelView SparseMatrix::View() const { return PanelView(0, rows_); }

CsrPanelView SparseMatrix::PanelView(Index row_begin, Index row_end) const {
  FGR_CHECK(row_begin >= 0 && row_begin <= row_end && row_end <= rows_);
  // A default-constructed matrix has an empty row_ptr: view it as no rows.
  static constexpr Index kNoRows = 0;
  if (row_ptr_.empty()) {
    return CsrPanelView(0, 0, cols_, &kNoRows, nullptr, nullptr);
  }
  // col_idx/values point at the panel's own first entry; the kernels index
  // them with row_ptr[r] - row_ptr[0], so the global slice lines up.
  const std::size_t base =
      static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(row_begin)]);
  return CsrPanelView(row_begin, row_end - row_begin, cols_,
                      row_ptr_.data() + row_begin, col_idx_.data() + base,
                      values_.data() + base);
}

SparseMatrix SparseMatrix::Transpose() const {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz()));
  for (Index i = 0; i < rows_; ++i) {
    for (Index p = row_ptr_[static_cast<std::size_t>(i)];
         p < row_ptr_[static_cast<std::size_t>(i) + 1]; ++p) {
      triplets.push_back({col_idx_[static_cast<std::size_t>(p)], i,
                          values_[static_cast<std::size_t>(p)]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(triplets));
}

bool SparseMatrix::IsSymmetric() const {
  return View().CheckSymmetry().symmetric;
}

void SparseMatrix::Scale(double factor) {
  for (double& value : values_) value *= factor;
}

void SparseMatrix::SetAllValues(double value) {
  ParallelFor(
      0, static_cast<Index>(values_.size()),
      [&](Index i) { values_[static_cast<std::size_t>(i)] = value; },
      /*grain=*/1 << 16);
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix result(rows_, cols_);
  for (Index i = 0; i < rows_; ++i) {
    for (Index p = row_ptr_[static_cast<std::size_t>(i)];
         p < row_ptr_[static_cast<std::size_t>(i) + 1]; ++p) {
      result(i, col_idx_[static_cast<std::size_t>(p)]) +=
          values_[static_cast<std::size_t>(p)];
    }
  }
  return result;
}

SparseMatrix SpGemm(const SparseMatrix& a, const SparseMatrix& b) {
  FGR_CHECK_EQ(a.cols(), b.rows()) << "SpGemm shape mismatch";
  using Index = SparseMatrix::Index;
  const Index rows = a.rows();
  const Index cols = b.cols();

  // Row-wise product with a dense accumulator + touched list (Gustavson).
  std::vector<double> accumulator(static_cast<std::size_t>(cols), 0.0);
  std::vector<bool> occupied(static_cast<std::size_t>(cols), false);
  std::vector<Index> touched;
  std::vector<Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    touched.clear();
    for (Index pa = a.row_ptr()[static_cast<std::size_t>(i)];
         pa < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++pa) {
      const Index k = a.col_idx()[static_cast<std::size_t>(pa)];
      const double va = a.values()[static_cast<std::size_t>(pa)];
      for (Index pb = b.row_ptr()[static_cast<std::size_t>(k)];
           pb < b.row_ptr()[static_cast<std::size_t>(k) + 1]; ++pb) {
        const Index j = b.col_idx()[static_cast<std::size_t>(pb)];
        if (!occupied[static_cast<std::size_t>(j)]) {
          occupied[static_cast<std::size_t>(j)] = true;
          touched.push_back(j);
        }
        accumulator[static_cast<std::size_t>(j)] +=
            va * b.values()[static_cast<std::size_t>(pb)];
      }
    }
    for (Index j : touched) {
      triplets.push_back({i, j, accumulator[static_cast<std::size_t>(j)]});
      accumulator[static_cast<std::size_t>(j)] = 0.0;
      occupied[static_cast<std::size_t>(j)] = false;
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

SparseMatrix SpAdd(const SparseMatrix& a, const SparseMatrix& b, double scale) {
  FGR_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  using Index = SparseMatrix::Index;
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(a.nnz() + b.nnz()));
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index p = a.row_ptr()[static_cast<std::size_t>(i)];
         p < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      triplets.push_back({i, a.col_idx()[static_cast<std::size_t>(p)],
                          a.values()[static_cast<std::size_t>(p)]});
    }
  }
  for (Index i = 0; i < b.rows(); ++i) {
    for (Index p = b.row_ptr()[static_cast<std::size_t>(i)];
         p < b.row_ptr()[static_cast<std::size_t>(i) + 1]; ++p) {
      triplets.push_back({i, b.col_idx()[static_cast<std::size_t>(p)],
                          scale * b.values()[static_cast<std::size_t>(p)]});
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), a.cols(), std::move(triplets));
}

}  // namespace fgr
