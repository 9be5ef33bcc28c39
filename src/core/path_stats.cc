#include "core/path_stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace fgr {

DenseMatrix NormalizeStatistics(const DenseMatrix& m,
                                NormalizationVariant variant) {
  FGR_CHECK_EQ(m.rows(), m.cols());
  const std::int64_t k = m.rows();
  DenseMatrix p(k, k);
  const std::vector<double> row_sums = m.RowSums();
  switch (variant) {
    case NormalizationVariant::kRowStochastic: {
      for (std::int64_t i = 0; i < k; ++i) {
        const double sum = row_sums[static_cast<std::size_t>(i)];
        for (std::int64_t j = 0; j < k; ++j) {
          p(i, j) = sum != 0.0 ? m(i, j) / sum
                               : 1.0 / static_cast<double>(k);
        }
      }
      return p;
    }
    case NormalizationVariant::kSymmetric: {
      std::vector<double> inv_sqrt(static_cast<std::size_t>(k), 0.0);
      for (std::int64_t i = 0; i < k; ++i) {
        const double sum = row_sums[static_cast<std::size_t>(i)];
        inv_sqrt[static_cast<std::size_t>(i)] =
            sum > 0.0 ? 1.0 / std::sqrt(sum) : 0.0;
      }
      for (std::int64_t i = 0; i < k; ++i) {
        for (std::int64_t j = 0; j < k; ++j) {
          const double scaled = m(i, j) *
                                inv_sqrt[static_cast<std::size_t>(i)] *
                                inv_sqrt[static_cast<std::size_t>(j)];
          p(i, j) = scaled;
        }
      }
      // Classes with zero observations get the uninformative row.
      for (std::int64_t i = 0; i < k; ++i) {
        if (row_sums[static_cast<std::size_t>(i)] == 0.0) {
          for (std::int64_t j = 0; j < k; ++j) {
            p(i, j) = 1.0 / static_cast<double>(k);
          }
        }
      }
      return p;
    }
    case NormalizationVariant::kGlobalScale: {
      double total = 0.0;
      for (double sum : row_sums) total += sum;
      if (total == 0.0) {
        return DenseMatrix::Constant(k, k, 1.0 / static_cast<double>(k));
      }
      const double factor = static_cast<double>(k) / total;
      for (std::int64_t i = 0; i < k; ++i) {
        for (std::int64_t j = 0; j < k; ++j) p(i, j) = factor * m(i, j);
      }
      return p;
    }
  }
  FGR_CHECK(false) << "unreachable normalization variant";
  return p;
}

PanelSummarizer::PanelSummarizer(const Labeling& seeds, int max_length,
                                 PathType path_type)
    : seeds_(seeds), max_length_(max_length), path_type_(path_type) {
  FGR_CHECK_GE(max_length, 1);
  // The recurrence state (x_, n_curr_/n_prev_/n_prev2_) never leaves the
  // summarizer, so it uses the padded row stride: every row starts on a
  // cache-line boundary for the SIMD SpMM. Results are unaffected — only
  // the k×k fold output (m_raw_) escapes, and that stays dense.
  const DenseMatrix one_hot = seeds_.ToOneHot();
  x_ = DenseMatrix::WithPaddedStride(one_hot.rows(), one_hot.cols());
  for (std::int64_t i = 0; i < one_hot.rows(); ++i) {
    std::copy_n(one_hot.RowPtr(i), one_hot.cols(), x_.RowPtr(i));
  }
  degrees_.assign(static_cast<std::size_t>(seeds_.num_nodes()), 0.0);
  m_raw_.reserve(static_cast<std::size_t>(max_length));
}

void PanelSummarizer::BeginPass(int length) {
  FGR_CHECK_EQ(current_length_, 0) << "EndPass missing before BeginPass";
  FGR_CHECK_EQ(length, static_cast<int>(m_raw_.size()) + 1)
      << "passes must run in order ℓ = 1..max_length";
  FGR_CHECK_LE(length, max_length_);
  current_length_ = length;
  next_row_ = 0;
  if (n_curr_.rows() != x_.rows() || n_curr_.cols() != x_.cols()) {
    n_curr_ = DenseMatrix::WithPaddedStride(x_.rows(), x_.cols());
  }
  m_raw_.emplace_back(seeds_.num_classes(), seeds_.num_classes());
}

void PanelSummarizer::AbsorbPanel(const CsrPanelView& panel) {
  FGR_CHECK_GT(current_length_, 0) << "AbsorbPanel outside a pass";
  FGR_CHECK_EQ(panel.first_row(), next_row_)
      << "panels must tile rows in ascending order";
  FGR_CHECK_EQ(panel.cols(), x_.rows());
  const std::int64_t lo = panel.first_row();
  const std::int64_t hi = lo + panel.rows();
  FGR_CHECK_LE(hi, x_.rows());
  const std::int64_t k = x_.cols();

  // N(ℓ) rows of this panel: W N(ℓ−1), with N(0) = X.
  const DenseMatrix& source = current_length_ == 1 ? x_ : n_prev_;
  panel.MultiplyInto(source, &n_curr_);

  if (current_length_ == 1) {
    panel.RowSumsInto(degrees_.data() + lo);
  } else if (path_type_ == PathType::kNonBacktracking) {
    if (current_length_ == 2) {
      // ℓ = 2: N(2) = W N(1) − D X.
      ParallelFor(lo, hi, [&](std::int64_t i) {
        const double d = degrees_[static_cast<std::size_t>(i)];
        const double* x_row = x_.RowPtr(i);
        double* row = n_curr_.RowPtr(i);
        for (std::int64_t j = 0; j < k; ++j) row[j] -= d * x_row[j];
      });
    } else {
      // ℓ ≥ 3: N(ℓ) = W N(ℓ−1) − (D − I) N(ℓ−2).
      ParallelFor(lo, hi, [&](std::int64_t i) {
        const double dm1 = degrees_[static_cast<std::size_t>(i)] - 1.0;
        const double* prev2_row = n_prev2_.RowPtr(i);
        double* row = n_curr_.RowPtr(i);
        for (std::int64_t j = 0; j < k; ++j) row[j] -= dm1 * prev2_row[j];
      });
    }
  }

  FoldClassCounts(lo, hi);
  next_row_ = hi;
}

// M(ℓ) += Xᵀ N(ℓ) over the panel rows: row c of M accumulates the N rows of
// nodes labeled c. Different nodes share class rows, so the parallel version
// accumulates one k×k partial per shard and combines them in shard order
// (deterministic for a fixed thread count; serial runs add node by node in
// row order, matching the in-core whole-panel pass exactly).
void PanelSummarizer::FoldClassCounts(std::int64_t row_begin,
                                      std::int64_t row_end) {
  const std::int64_t k = seeds_.num_classes();
  DenseMatrix& m = m_raw_.back();
  const auto accumulate = [&](std::int64_t lo, std::int64_t hi,
                              double* target) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const ClassId c = seeds_.label(static_cast<NodeId>(i));
      if (c == kUnlabeled) continue;
      const double* n_row = n_curr_.RowPtr(i);
      double* m_row = target + c * k;
      for (std::int64_t j = 0; j < k; ++j) m_row[j] += n_row[j];
    }
  };
  const int shards = NumShards(row_end - row_begin, /*grain=*/4096);
  if (shards == 1) {
    // Serial: accumulate straight into M, node by node in row order. Every
    // panel shape then produces the exact same addition sequence as the
    // in-core whole-matrix pass — bit-identical, not merely close.
    accumulate(row_begin, row_end, m.RowPtr(0));
    return;
  }
  // Per-shard k×k partials come from the calling thread's arena, so the
  // streaming path folds thousands of panels with zero steady-state heap
  // allocations; combining in shard order keeps the historical order of
  // additions into M (deterministic for a fixed thread count).
  ArenaScope scope(ThreadLocalArena());
  const std::size_t kk = static_cast<std::size_t>(k * k);
  double* partials =
      scope.AllocateArray<double>(static_cast<std::size_t>(shards) * kk);
  std::fill(partials, partials + static_cast<std::size_t>(shards) * kk, 0.0);
  ParallelForShards(row_begin, row_end, shards,
                    [&](std::int64_t lo, std::int64_t hi, int shard) {
                      accumulate(lo, hi,
                                 partials + static_cast<std::size_t>(shard) * kk);
                    });
  for (int shard = 0; shard < shards; ++shard) {
    const double* partial = partials + static_cast<std::size_t>(shard) * kk;
    for (std::int64_t c = 0; c < k; ++c) {
      double* m_row = m.RowPtr(c);
      for (std::int64_t j = 0; j < k; ++j) m_row[j] += partial[c * k + j];
    }
  }
}

void PanelSummarizer::EndPass() {
  FGR_CHECK_GT(current_length_, 0) << "EndPass outside a pass";
  FGR_CHECK_EQ(next_row_, x_.rows()) << "panels did not cover every row";
  // Rotate the recurrence buffers without reallocating.
  std::swap(n_prev2_, n_prev_);
  std::swap(n_prev_, n_curr_);
  current_length_ = 0;
}

GraphStatistics PanelSummarizer::Finish(NormalizationVariant variant) {
  FGR_CHECK_EQ(current_length_, 0) << "Finish inside a pass";
  FGR_CHECK_EQ(static_cast<int>(m_raw_.size()), max_length_)
      << "Finish before the final pass";
  GraphStatistics stats;
  stats.path_type = path_type_;
  stats.variant = variant;
  stats.m_raw = std::move(m_raw_);
  stats.p_hat.reserve(stats.m_raw.size());
  for (const DenseMatrix& m : stats.m_raw) {
    stats.p_hat.push_back(NormalizeStatistics(m, variant));
  }
  stats.seconds = timer_.Seconds();
  return stats;
}

GraphStatistics ComputeGraphStatistics(const Graph& graph,
                                       const Labeling& seeds, int max_length,
                                       PathType path_type,
                                       NormalizationVariant variant) {
  FGR_CHECK_EQ(seeds.num_nodes(), graph.num_nodes());
  WholeMatrixSource whole(graph.adjacency().View());
  return SummarizePanels(whole, seeds, max_length, path_type, variant)
      .value();
}

Result<GraphStatistics> SummarizePanels(PanelSource& source,
                                        const Labeling& seeds, int max_length,
                                        PathType path_type,
                                        NormalizationVariant variant) {
  PanelSummarizer summarizer(seeds, max_length, path_type);
  for (int length = 1; length <= max_length; ++length) {
    FGR_TRACE_SPAN("summarize/pass", length);
    summarizer.BeginPass(length);
    FGR_RETURN_IF_ERROR(source.ForEachPanel(
        [&](const CsrPanelView& panel) { summarizer.AbsorbPanel(panel); }));
    summarizer.EndPass();
  }
  return summarizer.Finish(variant);
}

SparseMatrix NonBacktrackingMatrixPower(const Graph& graph, int length) {
  FGR_CHECK_GE(length, 1);
  const SparseMatrix& w = graph.adjacency();
  if (length == 1) return w;

  const SparseMatrix d = SparseMatrix::Diagonal(graph.degrees());
  // W(2) = W² − D.
  SparseMatrix prev2 = w;                       // W(1)
  SparseMatrix prev = SpAdd(SpGemm(w, w), d, -1.0);  // W(2)
  if (length == 2) return prev;

  // D − I as a diagonal matrix for the recurrence tail.
  std::vector<double> dm1 = graph.degrees();
  for (double& v : dm1) v -= 1.0;
  const SparseMatrix d_minus_i = SparseMatrix::Diagonal(dm1);

  for (int l = 3; l <= length; ++l) {
    SparseMatrix next =
        SpAdd(SpGemm(w, prev), SpGemm(d_minus_i, prev2), -1.0);
    prev2 = std::move(prev);
    prev = std::move(next);
  }
  return prev;
}

}  // namespace fgr
