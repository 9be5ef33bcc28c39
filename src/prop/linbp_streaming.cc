#include "prop/linbp_streaming.h"

#include <memory>

#include "data/prefetching_panel_reader.h"

namespace fgr {

Result<LinBpResult> PropagateLinBPStreaming(
    const std::string& path, const Labeling& seeds, const DenseMatrix& h,
    const LinBpOptions& options,
    const BlockRowReaderOptions& reader_options) {
  Result<std::unique_ptr<StreamedPanelSource>> source =
      StreamedPanelSource::Open(path, reader_options, seeds.num_nodes());
  if (!source.ok()) return source.status();
  if (h.rows() != h.cols() ||
      h.rows() != static_cast<std::int64_t>(seeds.num_classes())) {
    return Status::InvalidArgument(
        "PropagateLinBPStreaming: H must be k×k for k = num_classes");
  }
  if (options.iterations <= 0 || options.convergence_scale <= 0.0) {
    return Status::InvalidArgument(
        "PropagateLinBPStreaming: iterations and convergence_scale must be "
        "positive");
  }
  return RunLinBpOverPanels(*source.value(), seeds, h, options);
}

}  // namespace fgr
