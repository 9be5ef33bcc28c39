// fgr::Estimate — the one front door to compatibility estimation.
//
// Callers name *what* to estimate over (a DatasetRef: an in-memory graph
// with seeds, or a .fgrbin cache on disk) and *how* (EstimateOptions: the
// DCE knobs plus an optional memory budget). Estimate opens the dataset
// once, as one of three panel sources (matrix/panel_source.h):
//
//   * an in-memory graph: its CSR as one panel (WholeMatrixSource);
//   * a .fgrbin without a budget: the cache mapped zero-copy
//     (MappedFgrBin, the reader fgrd uses) as one panel;
//   * a .fgrbin under memory_budget_bytes: block-row panels streamed
//     through the prefetcher (StreamedPanelSource).
//
// Every route then runs one body: SummarizePanels to GraphStatistics, then
// EstimateDceFromStatistics. The legacy entry point EstimateDce
// (core/dce.h) is a thin wrapper over this function. Serial results are
// bit-identical across routes.

#ifndef FGR_FGR_ESTIMATE_H_
#define FGR_FGR_ESTIMATE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/dce.h"
#include "data/block_row_reader.h"
#include "prop/linbp.h"
#include "util/status.h"

namespace fgr {

// A reference to the dataset an estimate should run over. Exactly one of
// {graph, path} is set. Borrowed pointers: the referenced graph and seeds
// must outlive the Estimate call (they are not copied).
struct DatasetRef {
  const Graph* graph = nullptr;    // in-memory route
  const Labeling* seeds = nullptr; // required with graph; optional with path
  std::string path;                // .fgrbin route

  static DatasetRef InMemory(const Graph& graph, const Labeling& seeds) {
    DatasetRef ref;
    ref.graph = &graph;
    ref.seeds = &seeds;
    return ref;
  }

  // Seeds default to the cache's embedded label section when null.
  static DatasetRef FgrBin(const std::string& path,
                           const Labeling* seeds = nullptr) {
    DatasetRef ref;
    ref.path = path;
    ref.seeds = seeds;
    return ref;
  }
};

// Consolidated estimation knobs.
struct EstimateOptions {
  // The paper's DCE/DCEr knobs (ℓmax, λ, restarts, path type, variant...).
  DceOptions dce;
  // When set, a path-backed dataset streams block-row panels under this
  // byte budget instead of mapping the CSR; it overrides
  // reader.memory_budget_bytes. Unset: the cache is mapped in core.
  // Setting it for an in-memory graph is an error (already resident).
  std::optional<std::int64_t> memory_budget_bytes;
  // Panel shaping for the streamed route (rows_per_panel etc).
  BlockRowReaderOptions reader;
};

// Opens the dataset's panel source and runs the estimate body over it. A
// malformed ref, seeds whose node count differs from the graph's, or DCE
// options the optimizer cannot run (restarts or max_path_length below 1, a
// lambda that is not positive and finite, optimizer.history below 1) is
// InvalidArgument on every route; path routes also surface I/O and
// validation errors.
Result<EstimationResult> Estimate(const DatasetRef& dataset,
                                  const EstimateOptions& options = {});

// fgr::Label — estimate H, then propagate it to a full labeling. It opens
// the dataset once, exactly as Estimate does, runs the estimate body, and
// then RunLinBpOverPanels over the *same* source: the in-memory CSR, the
// mapped cache, or the streamed cache, in which case only the n×k belief
// state is ever resident. Labels are bit-identical across the three
// sources at one thread. Non-positive linbp.iterations or
// convergence_scale, and the DCE options Estimate rejects, are
// InvalidArgument.
struct LabelOptions {
  EstimateOptions estimate;
  LinBpOptions linbp;
};

struct LabelResult {
  EstimationResult estimate;   // the H the propagation used
  LinBpResult propagation;     // beliefs, ε, spectra, iterations run
  Labeling labels;             // argmax labels; seeds keep their labels
};

Result<LabelResult> Label(const DatasetRef& dataset,
                          const LabelOptions& options = {});

}  // namespace fgr

#endif  // FGR_FGR_ESTIMATE_H_
