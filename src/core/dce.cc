#include "core/dce.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/compatibility.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace fgr {

DceObjective::DceObjective(std::vector<DenseMatrix> p_hat,
                           std::vector<double> weights)
    : p_hat_(std::move(p_hat)), weights_(std::move(weights)) {
  FGR_CHECK(!p_hat_.empty());
  FGR_CHECK_EQ(p_hat_.size(), weights_.size());
  k_ = p_hat_.front().rows();
  for (const DenseMatrix& p : p_hat_) {
    FGR_CHECK(p.rows() == k_ && p.cols() == k_);
  }
}

DceObjective DceObjective::WithGeometricWeights(std::vector<DenseMatrix> p_hat,
                                                double lambda) {
  FGR_CHECK_GT(lambda, 0.0);
  std::vector<double> weights(p_hat.size());
  double w = 1.0;
  for (std::size_t l = 0; l < weights.size(); ++l) {
    weights[l] = w;
    w *= lambda;
  }
  return DceObjective(std::move(p_hat), std::move(weights));
}

DceObjective::Workspace::Workspace(const DceObjective& objective) {
  const std::int64_t k = objective.k();
  params_.resize(static_cast<std::size_t>(NumFreeParameters(k)));
  const auto num_powers =
      static_cast<std::size_t>(2 * objective.max_path_length());
  powers_.reserve(num_powers);
  powers_.push_back(DenseMatrix::Identity(k));
  while (powers_.size() < num_powers) powers_.emplace_back(k, k);
  entry_gradient_ = DenseMatrix(k, k);
  product_ = DenseMatrix(k, k);
  term_ = DenseMatrix(k, k);
}

double DceObjective::Evaluate(const std::vector<double>& params,
                              Workspace* workspace,
                              std::vector<double>* gradient) const {
  FGR_CHECK(workspace != nullptr);
  Workspace& ws = *workspace;
  FGR_CHECK_EQ(ws.powers_.size(), 2 * p_hat_.size());
  FGR_CHECK_EQ(params.size(), ws.params_.size());
  std::vector<DenseMatrix>& powers = ws.powers_;
  const int lmax = max_path_length();

  // H and its powers: H^1..H^ℓmax for the energy, up to H^(2ℓmax−1) for the
  // gradient. The memo compares bits, so a reused power is exactly the one
  // a fresh evaluation would compute.
  const bool same_params =
      ws.have_params_ &&
      std::equal(params.begin(), params.end(), ws.params_.begin(),
                 [](double a, double b) {
                   return std::bit_cast<std::uint64_t>(a) ==
                          std::bit_cast<std::uint64_t>(b);
                 });
  if (!same_params) {
    std::copy(params.begin(), params.end(), ws.params_.begin());
    ws.have_params_ = true;
    CompatibilityFromParameters(params, k_, &powers[1]);
    ws.num_powers_ = 2;
  }
  const int needed = gradient != nullptr ? 2 * lmax : lmax + 1;
  for (int p = ws.num_powers_; p < needed; ++p) {
    powers[static_cast<std::size_t>(p - 1)].MultiplyInto(
        powers[1], &powers[static_cast<std::size_t>(p)]);
  }
  ws.num_powers_ = std::max(ws.num_powers_, needed);

  double energy = 0.0;
  for (std::size_t l = 0; l < p_hat_.size(); ++l) {
    const double distance = FrobeniusDistance(powers[l + 1], p_hat_[l]);
    energy += weights_[l] * distance * distance;
  }
  if (gradient == nullptr) return energy;

  // Entrywise gradient (Prop. 4.7):
  //   G = Σℓ 2wℓ ( ℓ·H^(2ℓ−1) − Σ_{r=0}^{ℓ−1} H^r P̂(ℓ) H^(ℓ−1−r) ).
  DenseMatrix& g = ws.entry_gradient_;
  g.SetZero();
  for (int l = 1; l <= lmax; ++l) {
    const double w = 2.0 * weights_[static_cast<std::size_t>(l - 1)];
    g.AddScaled(powers[static_cast<std::size_t>(2 * l - 1)],
                w * static_cast<double>(l));
    const DenseMatrix& z = p_hat_[static_cast<std::size_t>(l - 1)];
    // The r = 0 and r = ℓ−1 ends skip their product with H⁰ = I. For
    // finite entries that gives the same bits: I·Z and Z·I differ from Z
    // only in the sign of zero entries, and g + (−w)·(±0) is g either way.
    for (int r = 0; r <= l - 1; ++r) {
      const DenseMatrix* term = &z;
      if (r > 0) {
        powers[static_cast<std::size_t>(r)].MultiplyInto(z, &ws.product_);
        term = &ws.product_;
      }
      if (r < l - 1) {
        term->MultiplyInto(powers[static_cast<std::size_t>(l - 1 - r)],
                           &ws.term_);
        term = &ws.term_;
      }
      g.AddScaled(*term, -w);
    }
  }
  ProjectGradientToParameters(g, gradient);
  return energy;
}

double DceObjective::Value(const std::vector<double>& params) const {
  Workspace workspace(*this);
  return Evaluate(params, &workspace, nullptr);
}

void DceObjective::Gradient(const std::vector<double>& params,
                            std::vector<double>* gradient) const {
  FGR_CHECK(gradient != nullptr);
  Workspace workspace(*this);
  Evaluate(params, &workspace, gradient);
}

std::vector<std::vector<double>> MakeRestartPoints(std::int64_t k, int count,
                                                   double delta,
                                                   std::uint64_t seed) {
  FGR_CHECK_GE(count, 1);
  const std::int64_t num_params = NumFreeParameters(k);
  const double center = 1.0 / static_cast<double>(k);
  std::vector<std::vector<double>> points;
  points.reserve(static_cast<std::size_t>(count));

  // Start 0: the uninformative center.
  points.emplace_back(static_cast<std::size_t>(num_params), center);

  Rng rng(seed);
  // How many distinct hyper-quadrant corners exist (2^k*, capped to avoid
  // overflow for large k; beyond the cap we use random corners anyway).
  const int corner_bits =
      static_cast<int>(std::min<std::int64_t>(num_params, 30));
  const std::int64_t num_corners = std::int64_t{1} << corner_bits;

  for (int i = 1; i < count; ++i) {
    std::vector<double> point(static_cast<std::size_t>(num_params), center);
    if (i - 1 < num_corners && num_params <= 30) {
      // Deterministic corner: bit b of (i-1) picks the sign of parameter b.
      const std::int64_t pattern = i - 1;
      for (std::int64_t b = 0; b < num_params; ++b) {
        const double sign = ((pattern >> b) & 1) ? 1.0 : -1.0;
        point[static_cast<std::size_t>(b)] = center + sign * delta;
      }
    } else {
      // Random point in the plausible box [0, 2/k].
      for (double& value : point) {
        value = rng.Uniform(0.0, 2.0 * center);
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

EstimationResult EstimateDceFromStatistics(const GraphStatistics& stats,
                                           std::int64_t k,
                                           const DceOptions& options) {
  FGR_CHECK_GE(options.max_path_length, 1);
  FGR_CHECK_GE(static_cast<int>(stats.p_hat.size()), options.max_path_length)
      << "statistics hold " << stats.p_hat.size() << " path lengths, need "
      << options.max_path_length;
  Stopwatch timer;

  std::vector<DenseMatrix> p_hat(
      stats.p_hat.begin(),
      stats.p_hat.begin() + options.max_path_length);
  const DceObjective objective =
      DceObjective::WithGeometricWeights(std::move(p_hat), options.lambda);

  const double delta = options.restart_delta > 0.0
                           ? options.restart_delta
                           : 0.5 / static_cast<double>(k * k);
  std::vector<std::vector<double>> starts =
      MakeRestartPoints(k, options.restarts, delta, options.seed);
  if (options.initial_params.has_value()) {
    FGR_CHECK_EQ(static_cast<std::int64_t>(options.initial_params->size()),
                 NumFreeParameters(k));
    starts.front() = *options.initial_params;
  }

  // Restarts are independent L-BFGS runs; each run is identical to its
  // serial counterpart, and the winner is selected by scanning runs in start
  // order with a strict '<', so the result does not depend on thread count.
  // Each run evaluates through its own workspace, allocated once here.
  std::vector<OptimizeResult> runs(starts.size());
  ParallelFor(
      0, static_cast<std::int64_t>(starts.size()),
      [&](std::int64_t s) {
        DceObjective::Workspace workspace(objective);
        runs[static_cast<std::size_t>(s)] = MinimizeLbfgs(
            DceWorkspaceObjective(objective, &workspace),
            std::move(starts[static_cast<std::size_t>(s)]), options.optimizer);
      },
      /*grain=*/1);

  EstimationResult result;
  bool first = true;
  for (const OptimizeResult& run : runs) {
    ++result.restarts_used;
    if (first || run.value < result.energy) {
      first = false;
      result.energy = run.value;
      result.params = run.x;
      result.optimizer_iterations = run.iterations;
    }
  }
  result.h = CompatibilityFromParameters(result.params, k);
  result.seconds_summarization = stats.seconds;
  result.seconds_optimization = timer.Seconds();
  return result;
}

// EstimateDce lives in fgr/estimate.cc as a wrapper over fgr::Estimate —
// every route into estimation funnels through the one router.

}  // namespace fgr
