#include "fgr/estimate.h"

#include <utility>

#include "core/path_stats.h"
#include "data/fgrbin.h"
#include "data/graph_source.h"
#include "data/streaming_estimation.h"
#include "prop/linbp_streaming.h"
#include "util/check.h"

namespace fgr {
namespace {

EstimationResult EstimateInCore(const Graph& graph, const Labeling& seeds,
                                const DceOptions& options) {
  const GraphStatistics stats =
      ComputeGraphStatistics(graph, seeds, options.max_path_length,
                             options.path_type, options.variant);
  return EstimateDceFromStatistics(stats, seeds.num_classes(), options);
}

// The streamed route's reader: the caller's panel shaping under the budget.
BlockRowReaderOptions StreamedReader(const EstimateOptions& options) {
  BlockRowReaderOptions reader = options.reader;
  reader.memory_budget_bytes = *options.memory_budget_bytes;
  return reader;
}

// The seeds a path-backed ref runs with: the caller's when given, else the
// cache's embedded labels — `embedded` when the cache is already loaded,
// otherwise read from the file into `*owned`.
Result<const Labeling*> PathSeeds(const DatasetRef& dataset,
                                  const Labeling* embedded, Labeling* owned) {
  if (dataset.seeds != nullptr) return dataset.seeds;
  if (embedded == nullptr) {
    Result<Labeling> read = ReadFgrBinLabels(dataset.path);
    if (!read.ok()) return read.status();
    *owned = std::move(read).value();
    embedded = owned;
  }
  if (embedded->NumLabeled() == 0) {
    return Status::FailedPrecondition(
        dataset.path + ": cache has no label section to seed from");
  }
  return embedded;
}

}  // namespace

Result<EstimationResult> Estimate(const DatasetRef& dataset,
                                  const EstimateOptions& options) {
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
    return EstimateInCore(*dataset.graph, *dataset.seeds, options.dce);
  }

  if (dataset.path.empty()) {
    return Status::InvalidArgument(
        "empty DatasetRef: set graph + seeds or a .fgrbin path");
  }

  if (options.memory_budget_bytes.has_value()) {
    // Out-of-core: stream block-row panels under the budget.
    Labeling owned;
    Result<const Labeling*> seeds = PathSeeds(dataset, nullptr, &owned);
    if (!seeds.ok()) return seeds.status();
    Result<GraphStatistics> stats = ComputeGraphStatisticsStreaming(
        dataset.path, *seeds.value(), options.dce.max_path_length,
        options.dce.path_type, options.dce.variant, StreamedReader(options));
    if (!stats.ok()) return stats.status();
    return EstimateDceFromStatistics(
        stats.value(), seeds.value()->num_classes(), options.dce);
  }

  // In-core over a cache: load it whole, seed from the embedded labels
  // unless the caller supplied their own.
  Result<LabeledGraph> loaded = ReadFgrBin(dataset.path);
  if (!loaded.ok()) return loaded.status();
  Result<const Labeling*> seeds =
      PathSeeds(dataset, &loaded.value().labels, nullptr);
  if (!seeds.ok()) return seeds.status();
  return EstimateInCore(loaded.value().graph, *seeds.value(), options.dce);
}

Result<LabelResult> Label(const DatasetRef& dataset,
                          const LabelOptions& options) {
  // In-memory and un-budgeted path routes propagate in core; the budgeted
  // path route streams estimation and propagation over the same panels.
  if (dataset.graph == nullptr && !dataset.path.empty() &&
      options.estimate.memory_budget_bytes.has_value()) {
    Labeling owned;
    Result<const Labeling*> seeds = PathSeeds(dataset, nullptr, &owned);
    if (!seeds.ok()) return seeds.status();
    LabelResult result;
    Result<EstimationResult> estimate = Estimate(
        DatasetRef::FgrBin(dataset.path, seeds.value()), options.estimate);
    if (!estimate.ok()) return estimate.status();
    result.estimate = std::move(estimate).value();

    Result<LinBpResult> propagated = PropagateLinBPStreaming(
        dataset.path, *seeds.value(), result.estimate.h, options.linbp,
        StreamedReader(options.estimate));
    if (!propagated.ok()) return propagated.status();
    result.propagation = std::move(propagated).value();
    result.labels =
        LabelsFromBeliefs(result.propagation.beliefs, *seeds.value());
    return result;
  }

  if (dataset.graph == nullptr && !dataset.path.empty()) {
    // Load the cache once and fall through to the in-memory route, so the
    // file is not read twice (once to estimate, once to propagate).
    Result<LabeledGraph> loaded = ReadFgrBin(dataset.path);
    if (!loaded.ok()) return loaded.status();
    Result<const Labeling*> seeds =
        PathSeeds(dataset, &loaded.value().labels, nullptr);
    if (!seeds.ok()) return seeds.status();
    LabelOptions in_core = options;
    in_core.estimate.memory_budget_bytes.reset();
    return Label(DatasetRef::InMemory(loaded.value().graph, *seeds.value()),
                 in_core);
  }

  Result<EstimationResult> estimate = Estimate(dataset, options.estimate);
  if (!estimate.ok()) return estimate.status();
  LabelResult result;
  result.estimate = std::move(estimate).value();
  result.propagation = RunLinBp(*dataset.graph, *dataset.seeds,
                                result.estimate.h, options.linbp);
  result.labels =
      LabelsFromBeliefs(result.propagation.beliefs, *dataset.seeds);
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
  // The in-memory route has no failure mode once graph + seeds are set.
  FGR_CHECK(result.ok()) << result.status().message();
  return std::move(result).value();
}

}  // namespace fgr
