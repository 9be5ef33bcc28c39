// Factorized graph summarization (Section 4.6 / Algorithm 4.4).
//
// The key scalability idea of the paper: instead of materializing powers of
// the n×n adjacency matrix, keep n×k intermediates
//   N(1) = W X,   N(2) = W N(1) − D X,
//   N(ℓ) = W N(ℓ−1) − (D − I) N(ℓ−2)        [non-backtracking recurrence]
// and reduce each to the k×k statistics matrix M(ℓ) = Xᵀ N(ℓ). Normalizing
// M(ℓ) yields the observed length-ℓ statistics P̂(ℓ) that DCE fits against
// powers of H. Total cost: O(m·k·ℓmax), independent of path count.
//
// The full-path variant (N(ℓ) = W N(ℓ−1)) is retained because (a) it is what
// plain DCE-without-NB would use and Fig. 5a quantifies its bias, and (b)
// LCE's quadratic form needs M(1), M(2) over full paths.

#ifndef FGR_CORE_PATH_STATS_H_
#define FGR_CORE_PATH_STATS_H_

#include <vector>

#include "graph/graph.h"
#include "graph/labels.h"
#include "matrix/dense.h"
#include "matrix/panel_source.h"
#include "matrix/sparse.h"
#include "util/stopwatch.h"

namespace fgr {

enum class PathType {
  kNonBacktracking,  // W(ℓ)_NB path counts (consistent estimator, Thm. 4.1)
  kFull,             // plain Wℓ path counts (biased diagonal, Fig. 5a)
};

// The three normalization variants of Section 4.3.
enum class NormalizationVariant {
  kRowStochastic = 1,  // P̂ = diag(M1)⁻¹ M            (Eq. 9, default)
  kSymmetric = 2,      // P̂ = diag(M1)^-½ M diag(M1)^-½ (Eq. 10, LGC-style)
  kGlobalScale = 3,    // P̂ = k (1ᵀM1)⁻¹ M            (Eq. 11)
};

struct GraphStatistics {
  // m_raw[ℓ-1] = M(ℓ): label co-occurrence counts over length-ℓ paths (k×k).
  std::vector<DenseMatrix> m_raw;
  // p_hat[ℓ-1] = P̂(ℓ): normalized statistics.
  std::vector<DenseMatrix> p_hat;
  PathType path_type = PathType::kNonBacktracking;
  NormalizationVariant variant = NormalizationVariant::kRowStochastic;
  double seconds = 0.0;  // summarization wall-clock
};

// Computes M(ℓ) and P̂(ℓ) for ℓ = 1..max_length via Algorithm 4.4.
GraphStatistics ComputeGraphStatistics(
    const Graph& graph, const Labeling& seeds, int max_length,
    PathType path_type = PathType::kNonBacktracking,
    NormalizationVariant variant = NormalizationVariant::kRowStochastic);

// The ℓ-pass loop, written once over any panel source: pass ℓ feeds every
// panel through a PanelSummarizer. ComputeGraphStatistics runs it on the
// whole-matrix source, the serving layer on an mmap'd cache, and
// ComputeGraphStatisticsStreaming (data/streaming_estimation.h) on a
// streamed one. Fails only with the source's read error.
Result<GraphStatistics> SummarizePanels(PanelSource& source,
                                        const Labeling& seeds, int max_length,
                                        PathType path_type,
                                        NormalizationVariant variant);

// Folds the ℓ-length path statistics panel by panel — the engine behind
// SummarizePanels. One instance drives max_length passes over the
// adjacency matrix; pass ℓ must see the matrix's row panels in ascending,
// exactly-tiling order and produces M(ℓ). The resident state is the
// compact side of the factorization only: the one-hot X plus three rolling
// n×k recurrence buffers and the degree vector — W itself is whatever
// panel the caller is holding.
//
// The in-core path feeds one whole-matrix panel per pass, so streamed and
// in-core results agree bit-for-bit in serial runs (identical operation
// order: SpMM rows and the M accumulation both proceed in row order) and
// to floating-point reassociation when threaded (the M reduction combines
// per-shard partials whose boundaries depend on the panel shape).
class PanelSummarizer {
 public:
  PanelSummarizer(const Labeling& seeds, int max_length, PathType path_type);

  int max_length() const { return max_length_; }

  // Passes run in order ℓ = 1..max_length; within a pass, AbsorbPanel must
  // cover rows [0, n) in ascending contiguous order.
  void BeginPass(int length);
  void AbsorbPanel(const CsrPanelView& panel);
  void EndPass();

  // Weighted degrees observed during pass 1 (valid after EndPass of ℓ=1).
  const std::vector<double>& degrees() const { return degrees_; }

  // After the final EndPass: normalizes the accumulated M(ℓ) into a
  // GraphStatistics. Consumes the accumulated state.
  GraphStatistics Finish(NormalizationVariant variant);

 private:
  void FoldClassCounts(std::int64_t row_begin, std::int64_t row_end);

  Labeling seeds_;
  int max_length_;
  PathType path_type_;
  Stopwatch timer_;
  DenseMatrix x_;               // one-hot seeds (n×k)
  std::vector<double> degrees_;
  DenseMatrix n_prev2_;         // N(ℓ−2)
  DenseMatrix n_prev_;          // N(ℓ−1)
  DenseMatrix n_curr_;          // N(ℓ) being assembled this pass
  std::vector<DenseMatrix> m_raw_;
  int current_length_ = 0;      // 0 = not inside a pass
  std::int64_t next_row_ = 0;   // coverage check within the pass
};

// Normalizes a raw count matrix with the chosen variant. Zero rows (classes
// with no observed paths) fall back to the uninformative 1/k row so sparse
// seed sets never divide by zero.
DenseMatrix NormalizeStatistics(const DenseMatrix& m,
                                NormalizationVariant variant);

// Reference implementation of the NB recurrence at the n×n matrix level
// (Prop. 4.3): W(1)=W, W(2)=W²−D, W(ℓ)=W·W(ℓ−1) − (D−I)·W(ℓ−2).
// Exponential memory in ℓ — used only by tests (the Fig. 5b bench times
// its own inline copy of the recurrence, one ℓ at a time).
SparseMatrix NonBacktrackingMatrixPower(const Graph& graph, int length);

}  // namespace fgr

#endif  // FGR_CORE_PATH_STATS_H_
