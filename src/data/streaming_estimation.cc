#include "data/streaming_estimation.h"

#include <memory>

#include "data/prefetching_panel_reader.h"

namespace fgr {

Result<GraphStatistics> ComputeGraphStatisticsStreaming(
    const std::string& path, const Labeling& seeds, int max_length,
    PathType path_type, NormalizationVariant variant,
    const BlockRowReaderOptions& reader_options) {
  Result<std::unique_ptr<StreamedPanelSource>> source =
      StreamedPanelSource::Open(path, reader_options, seeds.num_nodes());
  if (!source.ok()) return source.status();
  return SummarizePanels(*source.value(), seeds, max_length, path_type,
                         variant);
}

}  // namespace fgr
