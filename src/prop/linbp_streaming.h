// Out-of-core LinBP: a thin wrapper that opens a .fgrbin cache as a
// streamed PanelSource and runs the shared LinBP body (RunLinBpOverPanels,
// prop/linbp.h) on it.
//
// The LinBP iteration F ← X + ε·(W F)H' consumes W strictly block-row, so
// resident memory is the n×k belief state (X, F, F_next, the W·F scratch:
// 4·n·k doubles) plus the prefetcher's panels under the reader's budget; W
// itself never materializes. The in-core RunLinBp is the same body on the
// single-panel source, so streamed beliefs are bit-identical to in-core at
// any thread count.

#ifndef FGR_PROP_LINBP_STREAMING_H_
#define FGR_PROP_LINBP_STREAMING_H_

#include <string>

#include "data/block_row_reader.h"
#include "matrix/dense.h"
#include "graph/labels.h"
#include "prop/linbp.h"
#include "util/status.h"

namespace fgr {

// Runs LinBP from `seeds` with compatibility matrix `h` over the .fgrbin
// cache at `path` without materializing the CSR. Rejects mismatched shapes
// with InvalidArgument, and fails loudly — with the reader's
// panel-boundary error — if the file mutates mid-stream.
Result<LinBpResult> PropagateLinBPStreaming(
    const std::string& path, const Labeling& seeds, const DenseMatrix& h,
    const LinBpOptions& options = {},
    const BlockRowReaderOptions& reader_options = {});

}  // namespace fgr

#endif  // FGR_PROP_LINBP_STREAMING_H_
