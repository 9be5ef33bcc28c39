// Distant Compatibility Estimation — DCE and DCEr (Sections 4.4–4.8).
//
// DCE fits powers of the compatibility matrix against the observed length-ℓ
// statistics by minimizing the distance-smoothed energy
//   E(H) = Σ_{ℓ=1..ℓmax} wℓ ‖Hℓ − P̂(ℓ)‖²_F,   wℓ = λ^(ℓ−1)   (Eq. 13/14)
// over the k* free parameters of H, using the explicit gradient of
// Prop. 4.7. For ℓmax = 1 this degenerates to MCE (the convex myopic
// estimator of Section 4.3). For ℓmax > 1 the energy is non-convex and DCEr
// restarts the optimization from multiple points in parameter space.
//
// The two-step structure is the paper's key asset: ComputeGraphStatistics is
// O(m·k·ℓmax) and runs once; every evaluation afterwards touches only k×k
// data — independent of the graph. An energy costs ℓmax−1 k×k products,
// O(k³·ℓmax); the gradient adds the powers up to H^(2ℓmax−1) and
// ℓmax(ℓmax−1) term products, O(k³·ℓmax²). An accepted L-BFGS point (a
// Value, then a Gradient that reuses its powers) costs (ℓmax−1)(ℓmax+2)
// products: 28 at ℓmax = 5.

#ifndef FGR_CORE_DCE_H_
#define FGR_CORE_DCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimation.h"
#include "core/path_stats.h"
#include "graph/graph.h"
#include "graph/labels.h"
#include "opt/lbfgs.h"
#include "opt/objective.h"
#include "util/check.h"

namespace fgr {

struct DceOptions {
  int max_path_length = 5;   // ℓmax; Result 1 recommends 5
  double lambda = 10.0;      // weight scaling factor; Result 1 recommends 10
  PathType path_type = PathType::kNonBacktracking;
  NormalizationVariant variant = NormalizationVariant::kRowStochastic;
  // Number of optimization starts. 1 = plain DCE (start at the
  // uninformative 1/k point); the paper's DCEr uses 10 (Result 3).
  int restarts = 1;
  // Half-width δ of the hyper-quadrant restart displacement 1/k ± δ.
  // Negative selects the default 0.5/k².
  double restart_delta = -1.0;
  std::uint64_t seed = 7;
  LbfgsOptions optimizer;
  // Overrides the first start point (used by the Fig. 6h "global minimum"
  // baseline, which initializes at the gold standard).
  std::optional<std::vector<double>> initial_params;
};

// The DCE energy as a differentiable objective over the free parameters.
// Exposed so tests can validate the analytic gradient and benches can feed
// it to alternative optimizers.
class DceObjective : public DifferentiableObjective {
 public:
  // Caller-owned scratch for Evaluate, sized once for one objective: H, its
  // powers H⁰…H^(2ℓmax−1), the k×k gradient accumulators, and the params
  // the held powers were computed at. Not thread-safe: one per concurrent
  // evaluation stream (DCEr gives each restart its own).
  class Workspace {
   public:
    explicit Workspace(const DceObjective& objective);

   private:
    friend class DceObjective;
    std::vector<double> params_;       // where powers_ were computed
    bool have_params_ = false;
    int num_powers_ = 1;               // powers_[0, num_powers_) are current
    std::vector<DenseMatrix> powers_;  // powers_[p] = Hᵖ; [0] = I, [1] = H
    DenseMatrix entry_gradient_;       // G = ∂E/∂H
    DenseMatrix product_;              // H^r·P̂(ℓ), scratch
    DenseMatrix term_;                 // H^r·P̂(ℓ)·H^(ℓ−1−r), scratch
  };

  // p_hat[ℓ-1] = P̂(ℓ); weights[ℓ-1] = wℓ. All matrices must be k×k.
  DceObjective(std::vector<DenseMatrix> p_hat, std::vector<double> weights);

  // Convenience: geometric weights wℓ = λ^(ℓ−1).
  static DceObjective WithGeometricWeights(std::vector<DenseMatrix> p_hat,
                                           double lambda);

  // The one evaluation body: returns E(params) and, when `gradient` is
  // non-null, writes ∂E/∂h (length k*) into it. It allocates nothing once
  // `gradient` has held k* values. Powers `workspace` already holds for the
  // same params are reused, so the Gradient that L-BFGS asks for at the
  // point of its last Value computes only H^(ℓmax+1)…H^(2ℓmax−1) anew.
  double Evaluate(const std::vector<double>& params, Workspace* workspace,
                  std::vector<double>* gradient) const;

  // Thin wrappers over Evaluate with a fresh Workspace per call (they
  // allocate; optimizer loops use DceWorkspaceObjective instead).
  double Value(const std::vector<double>& params) const override;
  void Gradient(const std::vector<double>& params,
                std::vector<double>* gradient) const override;

  std::int64_t k() const { return k_; }
  int max_path_length() const { return static_cast<int>(p_hat_.size()); }

 private:
  std::vector<DenseMatrix> p_hat_;
  std::vector<double> weights_;
  std::int64_t k_;
};

// A DceObjective evaluated through one caller-owned Workspace: what each
// L-BFGS run minimizes, so a run allocates only when it starts. Value and
// Gradient forward to Evaluate. Not thread-safe: one per concurrent run.
class DceWorkspaceObjective final : public DifferentiableObjective {
 public:
  DceWorkspaceObjective(const DceObjective& objective,
                        DceObjective::Workspace* workspace)
      : objective_(objective), workspace_(workspace) {}

  double Value(const std::vector<double>& params) const override {
    return objective_.Evaluate(params, workspace_, nullptr);
  }
  void Gradient(const std::vector<double>& params,
                std::vector<double>* gradient) const override {
    FGR_CHECK(gradient != nullptr);
    objective_.Evaluate(params, workspace_, gradient);
  }

 private:
  const DceObjective& objective_;
  DceObjective::Workspace* workspace_;
};

// End-to-end DCE/DCEr: summarize the graph, then optimize on the sketches.
EstimationResult EstimateDce(const Graph& graph, const Labeling& seeds,
                             const DceOptions& options = {});

// Optimization-only entry point for precomputed statistics (lets benches
// reuse one summarization across many optimizer settings). `k` is the number
// of classes; `stats` must hold at least options.max_path_length matrices.
EstimationResult EstimateDceFromStatistics(const GraphStatistics& stats,
                                           std::int64_t k,
                                           const DceOptions& options = {});

// Generates the restart start points DCEr uses: the uninformative center
// 1/k, then the 2^k* hyper-quadrant corners 1/k ± δ (cycled deterministically
// via the bits of the restart index), then uniform-random points. Exposed
// for tests and the restart-count bench.
std::vector<std::vector<double>> MakeRestartPoints(std::int64_t k, int count,
                                                   double delta,
                                                   std::uint64_t seed);

}  // namespace fgr

#endif  // FGR_CORE_DCE_H_
