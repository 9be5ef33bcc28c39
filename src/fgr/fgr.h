// Umbrella header for the fgr library — Factorized Graph Representations
// for semi-supervised learning from sparse data (SIGMOD 2020 reproduction).
//
// Typical end-to-end use:
//
//   fgr::Rng rng(42);
//   auto planted = fgr::GeneratePlantedGraph(
//       fgr::MakeSkewConfig(/*num_nodes=*/10000, /*avg_degree=*/25,
//                           /*num_classes=*/3, /*skew=*/3.0), rng).value();
//   fgr::Labeling seeds =
//       fgr::SampleStratifiedSeeds(planted.labels, /*fraction=*/0.01, rng);
//   fgr::DceOptions options;
//   options.restarts = 10;                       // DCEr
//   auto estimate = fgr::EstimateDce(planted.graph, seeds, options);
//   auto propagation = fgr::RunLinBp(planted.graph, seeds, estimate.h);
//   fgr::Labeling predicted =
//       fgr::LabelsFromBeliefs(propagation.beliefs, seeds);

#ifndef FGR_FGR_H_
#define FGR_FGR_H_

#include "core/compatibility.h"
#include "core/dce.h"
#include "core/estimation.h"
#include "core/gold.h"
#include "core/heuristic.h"
#include "core/holdout.h"
#include "core/lce.h"
#include "core/mce.h"
#include "core/path_stats.h"
#include "data/block_row_reader.h"
#include "data/fgrbin.h"
#include "data/file_source.h"
#include "data/graph_source.h"
#include "data/mimic_source.h"
#include "data/mmap_fgrbin.h"
#include "data/prefetching_panel_reader.h"
#include "data/registry.h"
#include "data/streaming_estimation.h"
#include "eval/accuracy.h"
#include "eval/confusion.h"
#include "fgr/estimate.h"
#include "gen/datasets.h"
#include "gen/degree.h"
#include "gen/planted.h"
#include "gen/sinkhorn.h"
#include "graph/components.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/labels.h"
#include "matrix/dense.h"
#include "matrix/kernels/kernels.h"
#include "matrix/panel_source.h"
#include "matrix/sparse.h"
#include "matrix/spectral.h"
#include "opt/gradient_descent.h"
#include "opt/lbfgs.h"
#include "opt/nelder_mead.h"
#include "opt/objective.h"
#include "prop/harmonic.h"
#include "prop/linbp.h"
#include "prop/linbp_streaming.h"
#include "prop/randomwalk.h"
#include "serve/dataset_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/summary_cache.h"
#include "util/aligned.h"
#include "util/arena.h"
#include "util/bench_json.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/ring_queue.h"
#include "util/shuffle.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table.h"

#endif  // FGR_FGR_H_
