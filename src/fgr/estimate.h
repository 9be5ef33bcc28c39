// fgr::Estimate — the one front door to compatibility estimation.
//
// Callers name *what* to estimate over (a DatasetRef: an in-memory graph
// with seeds, or a .fgrbin cache on disk) and *how* (EstimateOptions:
// the DCE knobs plus an optional memory budget); Estimate routes to the
// in-core summarizer or the out-of-core block-row streamer accordingly.
// The legacy entry point EstimateDce (core/dce.h) is a thin wrapper over
// this function, so every route runs the identical pipeline: summarize to
// GraphStatistics, then EstimateDceFromStatistics. Serial results are
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
  // byte budget instead of materializing the CSR; it overrides
  // reader.memory_budget_bytes. Unset: the cache is loaded in core.
  // Setting it for an in-memory graph is an error (already resident).
  std::optional<std::int64_t> memory_budget_bytes;
  // Panel shaping for the streamed route (rows_per_panel etc).
  BlockRowReaderOptions reader;
};

// Routes to the in-core or streaming estimator per the rules above.
// In-memory estimation cannot fail once the ref is well-formed; path
// routes surface I/O and validation errors.
Result<EstimationResult> Estimate(const DatasetRef& dataset,
                                  const EstimateOptions& options = {});

// fgr::Label — estimate H, then propagate it to a full labeling. The same
// router rules apply: in-memory and un-budgeted path routes load the graph
// and run RunLinBp in core; a budgeted path route streams both the
// estimation *and* the propagation block-row (PropagateLinBPStreaming), so
// only the n×k belief state is ever resident. Streamed labels are
// bit-identical to in-core at one thread.
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
