// Linearized Belief Propagation (LinBP).
//
// Implements the paper's propagation substrate:
//   F ← X + ε · W F H'          (Eq. 1 / Eq. 4)
// where H' is the (optionally centered) compatibility matrix scaled by ε so
// the iteration converges: ε = s / (ρ(W) · ρ(H̃)) for a convergence parameter
// s < 1 (Eq. 2). Theorem 3.1 shows the final *labels* are identical whether
// X and H are centered or not, so by default we propagate the uncentered
// frequency-distribution form. The echo-cancellation variant
//   F ← X + W F Ĥ − D F Ĥ²
// from the original LinBP derivation is available for the ablation bench;
// the paper explicitly drops it.

#ifndef FGR_PROP_LINBP_H_
#define FGR_PROP_LINBP_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/labels.h"
#include "matrix/dense.h"
#include "matrix/panel_source.h"
#include "util/status.h"

namespace fgr {

struct LinBpOptions {
  // Fixed iteration count; the paper's experiments use 10.
  int iterations = 10;
  // Convergence parameter s in (0, 1): ε = s / (ρ(W)·ρ(H̃)).
  double convergence_scale = 0.5;
  // Propagate the centered residual matrix H̃ instead of H. Labels are
  // identical by Theorem 3.1; beliefs differ (Fig. 10).
  bool centered = false;
  // Include the echo-cancellation term (ablation only).
  bool echo_cancellation = false;
  // Stop early when max-abs belief change falls below this (0 disables).
  double early_stop_tolerance = 0.0;
  // Precomputed spectral radius of W (0 = compute internally). Callers that
  // propagate repeatedly on the same graph compute it once with
  // SpectralRadius() and pass it here: Holdout per graph, benches, and
  // fgrd per dataset content hash (SummaryCache::GetOrComputeRho). It
  // must be the value SpectralRadius returns for this W, or ε moves.
  double rho_w_hint = 0.0;
};

struct LinBpResult {
  DenseMatrix beliefs;       // final F (n×k)
  double epsilon = 0.0;      // applied scaling
  double rho_w = 0.0;        // spectral radius of W
  double rho_h = 0.0;        // spectral radius of H̃
  int iterations_run = 0;
};

// Runs LinBP from the seed labeling with compatibility matrix `h` (k×k,
// symmetric; typically doubly stochastic but any constant-shifted variant
// labels identically).
LinBpResult RunLinBp(const Graph& graph, const Labeling& seeds,
                     const DenseMatrix& h, const LinBpOptions& options = {});

// Same, over a whole-matrix adjacency view plus its weighted degrees. The
// Graph overload delegates here (graph.adjacency().View(),
// graph.degrees()).
LinBpResult RunLinBp(const CsrPanelView& adjacency,
                     const std::vector<double>& degrees,
                     const Labeling& seeds, const DenseMatrix& h,
                     const LinBpOptions& options = {});

// The LinBP body, written once over any panel source; both RunLinBp
// overloads run it on the single-panel source, PropagateLinBPStreaming
// (prop/linbp_streaming.h) on a streamed one, and fgr::Label and fgrd on
// whichever source they opened. ρ(W), unless hinted, costs
// one pass per Lanczos multiply; each iteration is one pass in
// which every panel fills its rows of W·F and folds them into F_next.
// `degrees` (the weighted degrees, read only with echo cancellation) may
// be null, in which case one extra pass sums them. Fails only with the
// source's read error, returning no beliefs.
Result<LinBpResult> RunLinBpOverPanels(
    PanelSource& source, const Labeling& seeds, const DenseMatrix& h,
    const LinBpOptions& options = {},
    const std::vector<double>* degrees = nullptr);

// Argmax labeling from a belief matrix; seeds keep their given labels.
Labeling LabelsFromBeliefs(const DenseMatrix& beliefs, const Labeling& seeds);

}  // namespace fgr

#endif  // FGR_PROP_LINBP_H_
