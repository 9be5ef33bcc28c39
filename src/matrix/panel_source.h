// A source of adjacency-matrix row panels: the one abstraction every
// block-row consumer of W is written against — the factorized ℓ-pass
// summarization (core/path_stats.h), the ρ(W) Lanczos iteration
// (matrix/spectral.h) and LinBP (prop/linbp.h).
//
// Each ForEachPanel call is one full pass: it visits row panels in
// ascending order that exactly tile rows [0, num_nodes()). The whole
// in-memory or mmap'd matrix is the single-panel case (WholeMatrixSource);
// StreamedPanelSource (data/prefetching_panel_reader.h) streams a .fgrbin
// cache through the prefetcher. Every consumer has one body over this
// interface, so whenever its per-panel work is row-local, streamed and
// in-core results agree bit for bit by construction.

#ifndef FGR_MATRIX_PANEL_SOURCE_H_
#define FGR_MATRIX_PANEL_SOURCE_H_

#include <cstdint>
#include <functional>

#include "matrix/sparse.h"
#include "util/check.h"
#include "util/status.h"

namespace fgr {

class PanelSource {
 public:
  using PanelFn = std::function<void(const CsrPanelView&)>;

  virtual ~PanelSource() = default;

  virtual std::int64_t num_nodes() const = 0;

  // One pass: applies `fn` to every panel in ascending row order. Returns
  // the source's read error, if any; no panel after it is visited.
  virtual Status ForEachPanel(const PanelFn& fn) = 0;
};

// The whole square matrix as one panel. Cannot fail.
class WholeMatrixSource final : public PanelSource {
 public:
  explicit WholeMatrixSource(const CsrPanelView& view) : view_(view) {
    FGR_CHECK_EQ(view.first_row(), 0) << "a panel source needs the whole matrix";
    FGR_CHECK_EQ(view.rows(), view.cols());
  }

  std::int64_t num_nodes() const override { return view_.rows(); }

  Status ForEachPanel(const PanelFn& fn) override {
    fn(view_);
    return Status::Ok();
  }

 private:
  CsrPanelView view_;
};

}  // namespace fgr

#endif  // FGR_MATRIX_PANEL_SOURCE_H_
