#include "fgr/estimate.h"

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/path_stats.h"
#include "data/fgrbin.h"
#include "data/mmap_fgrbin.h"
#include "data/prefetching_panel_reader.h"
#include "matrix/panel_source.h"
#include "util/check.h"

namespace fgr {
namespace {

// A DatasetRef opened once: the panel source every pass runs over and the
// seeds the passes start from. `source` and `seeds` may point into
// `mapped` or `embedded`, so an opened dataset stays where OpenDataset
// filled it.
struct OpenedDataset {
  OpenedDataset() = default;
  OpenedDataset(const OpenedDataset&) = delete;
  OpenedDataset& operator=(const OpenedDataset&) = delete;

  std::optional<MappedFgrBin> mapped;  // unbudgeted .fgrbin
  Labeling embedded;                   // budgeted .fgrbin's label section
  const Labeling* seeds = nullptr;
  std::unique_ptr<PanelSource> source;
};

// Opens `dataset` as one of the three panel sources — the in-memory
// graph's CSR, the mapped cache, or the cache streamed under the budget —
// and checks the seeds against it.
Status OpenDataset(const DatasetRef& dataset, const EstimateOptions& options,
                   OpenedDataset* opened) {
  if (dataset.graph != nullptr && !dataset.path.empty()) {
    return Status::InvalidArgument(
        "DatasetRef names both an in-memory graph and a path; set one");
  }
  if (dataset.graph != nullptr) {
    if (dataset.seeds == nullptr) {
      return Status::InvalidArgument(
          "in-memory estimation needs a seed labeling");
    }
    if (options.memory_budget_bytes.has_value()) {
      return Status::InvalidArgument(
          "memory_budget_bytes applies to .fgrbin-backed datasets; an "
          "in-memory graph is already resident");
    }
    opened->seeds = dataset.seeds;
    opened->source =
        std::make_unique<WholeMatrixSource>(dataset.graph->adjacency().View());
  } else if (dataset.path.empty()) {
    return Status::InvalidArgument(
        "empty DatasetRef: set graph + seeds or a .fgrbin path");
  } else if (!options.memory_budget_bytes.has_value()) {
    // In core: the mapped CSR sections as one panel.
    Result<MappedFgrBin> mapped = MappedFgrBin::Open(dataset.path);
    if (!mapped.ok()) return mapped.status();
    opened->mapped.emplace(std::move(mapped).value());
    opened->seeds = dataset.seeds != nullptr ? dataset.seeds
                                             : &opened->mapped->labels();
    opened->source =
        std::make_unique<WholeMatrixSource>(opened->mapped->View());
  } else {
    // Out of core: block-row panels streamed under the budget.
    if (dataset.seeds == nullptr) {
      Result<Labeling> embedded = ReadFgrBinLabels(dataset.path);
      if (!embedded.ok()) return embedded.status();
      opened->embedded = std::move(embedded).value();
    }
    opened->seeds =
        dataset.seeds != nullptr ? dataset.seeds : &opened->embedded;
    BlockRowReaderOptions reader = options.reader;
    reader.memory_budget_bytes = *options.memory_budget_bytes;
    Result<std::unique_ptr<StreamedPanelSource>> streamed =
        StreamedPanelSource::Open(dataset.path, reader,
                                  opened->seeds->num_nodes());
    if (!streamed.ok()) return streamed.status();
    opened->source = std::move(streamed).value();
  }

  if (dataset.seeds == nullptr && opened->seeds->NumLabeled() == 0) {
    return Status::FailedPrecondition(
        dataset.path + ": cache has no label section to seed from");
  }
  const std::int64_t nodes = opened->source->num_nodes();
  if (opened->seeds->num_nodes() != nodes) {
    const std::string what =
        dataset.path.empty() ? "graph" : dataset.path + ": cache";
    return Status::InvalidArgument(
        what + " has " + std::to_string(nodes) +
        " nodes but the seed labeling has " +
        std::to_string(opened->seeds->num_nodes()));
  }
  return Status::Ok();
}

// DCE knobs the optimizer would otherwise abort on, rejected before any
// route opens its dataset.
Status ValidateDceOptions(const DceOptions& options) {
  if (options.restarts < 1) {
    return Status::InvalidArgument("DCE restarts must be at least 1");
  }
  if (options.max_path_length < 1) {
    return Status::InvalidArgument("DCE max_path_length must be at least 1");
  }
  if (!(std::isfinite(options.lambda) && options.lambda > 0.0)) {
    return Status::InvalidArgument("DCE lambda must be positive and finite");
  }
  if (options.optimizer.history < 1) {
    return Status::InvalidArgument("L-BFGS history must be at least 1");
  }
  return Status::Ok();
}

// The estimate body every route runs: the ℓ passes, then the k×k DCE.
Result<EstimationResult> EstimateOpened(OpenedDataset& opened,
                                        const DceOptions& options) {
  Result<GraphStatistics> stats =
      SummarizePanels(*opened.source, *opened.seeds, options.max_path_length,
                      options.path_type, options.variant);
  if (!stats.ok()) return stats.status();
  return EstimateDceFromStatistics(stats.value(),
                                   opened.seeds->num_classes(), options);
}

}  // namespace

Result<EstimationResult> Estimate(const DatasetRef& dataset,
                                  const EstimateOptions& options) {
  FGR_RETURN_IF_ERROR(ValidateDceOptions(options.dce));
  OpenedDataset opened;
  FGR_RETURN_IF_ERROR(OpenDataset(dataset, options, &opened));
  return EstimateOpened(opened, options.dce);
}

Result<LabelResult> Label(const DatasetRef& dataset,
                          const LabelOptions& options) {
  if (options.linbp.iterations <= 0 || options.linbp.convergence_scale <= 0.0) {
    return Status::InvalidArgument(
        "LinBP iterations and convergence_scale must be positive");
  }
  FGR_RETURN_IF_ERROR(ValidateDceOptions(options.estimate.dce));
  OpenedDataset opened;
  FGR_RETURN_IF_ERROR(OpenDataset(dataset, options.estimate, &opened));
  Result<EstimationResult> estimate =
      EstimateOpened(opened, options.estimate.dce);
  if (!estimate.ok()) return estimate.status();
  LabelResult result;
  result.estimate = std::move(estimate).value();

  // The same source again: one open serves estimation and propagation.
  Result<LinBpResult> propagated = RunLinBpOverPanels(
      *opened.source, *opened.seeds, result.estimate.h, options.linbp);
  if (!propagated.ok()) return propagated.status();
  result.propagation = std::move(propagated).value();
  result.labels =
      LabelsFromBeliefs(result.propagation.beliefs, *opened.seeds);
  return result;
}

// Legacy entry point, kept as a thin wrapper (declared in core/dce.h) so
// the whole codebase funnels through the one router above.

EstimationResult EstimateDce(const Graph& graph, const Labeling& seeds,
                             const DceOptions& options) {
  EstimateOptions unified;
  unified.dce = options;
  Result<EstimationResult> result =
      Estimate(DatasetRef::InMemory(graph, seeds), unified);
  // The in-memory route fails only on a malformed call (seeds that do not
  // match the graph), which the legacy signature cannot report.
  FGR_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

}  // namespace fgr
