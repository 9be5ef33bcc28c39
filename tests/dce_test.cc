#include "core/dce.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "core/compatibility.h"
#include "gen/planted.h"
#include "opt/objective.h"
#include "util/random.h"

namespace fgr {
namespace {

// P̂(ℓ) = Hℓ exactly — the idealized infinite-data statistics.
std::vector<DenseMatrix> ExactStatistics(const DenseMatrix& h, int lmax) {
  std::vector<DenseMatrix> p_hat;
  DenseMatrix power = h;
  for (int l = 1; l <= lmax; ++l) {
    if (l > 1) power = power.Multiply(h);
    p_hat.push_back(power);
  }
  return p_hat;
}

TEST(DceObjectiveTest, ZeroAtExactStatistics) {
  const DenseMatrix h = MakeSkewCompatibility(3, 3.0);
  const DceObjective objective =
      DceObjective::WithGeometricWeights(ExactStatistics(h, 5), 10.0);
  EXPECT_NEAR(objective.Value(ParametersFromCompatibility(h)), 0.0, 1e-20);
}

TEST(DceObjectiveTest, PositiveAwayFromOptimum) {
  const DenseMatrix h = MakeSkewCompatibility(3, 3.0);
  const DceObjective objective =
      DceObjective::WithGeometricWeights(ExactStatistics(h, 3), 10.0);
  const std::vector<double> uniform(3, 1.0 / 3.0);
  EXPECT_GT(objective.Value(uniform), 0.1);
}

TEST(DceObjectiveTest, GeometricWeightsScaleTerms) {
  const DenseMatrix h = MakeSkewCompatibility(3, 3.0);
  // Perturb only the ℓ=2 statistics: energy must scale linearly in λ.
  auto p_hat = ExactStatistics(h, 2);
  p_hat[1].AddConstant(0.1);
  const auto params = ParametersFromCompatibility(h);
  const DceObjective obj1 = DceObjective::WithGeometricWeights(p_hat, 1.0);
  const DceObjective obj10 = DceObjective::WithGeometricWeights(p_hat, 10.0);
  EXPECT_NEAR(obj10.Value(params), 10.0 * obj1.Value(params), 1e-12);
}

// The Prop. 4.7 gradient as the double loop over ℓ and r, one fresh
// product per term: the reference the objective's one evaluation body must
// reproduce.
std::vector<double> ReferenceGradient(const std::vector<DenseMatrix>& p_hat,
                                      const std::vector<double>& weights,
                                      const std::vector<double>& params) {
  const std::int64_t k = p_hat.front().rows();
  const int lmax = static_cast<int>(p_hat.size());
  const DenseMatrix h = CompatibilityFromParameters(params, k);
  std::vector<DenseMatrix> powers{DenseMatrix::Identity(k)};
  for (int p = 1; p <= 2 * lmax - 1; ++p) {
    powers.push_back(powers.back().Multiply(h));
  }
  DenseMatrix g(k, k);
  for (int l = 1; l <= lmax; ++l) {
    const double w = 2.0 * weights[static_cast<std::size_t>(l - 1)];
    g.AddScaled(powers[static_cast<std::size_t>(2 * l - 1)],
                w * static_cast<double>(l));
    const DenseMatrix& z = p_hat[static_cast<std::size_t>(l - 1)];
    for (int r = 0; r <= l - 1; ++r) {
      const DenseMatrix term =
          powers[static_cast<std::size_t>(r)].Multiply(z).Multiply(
              powers[static_cast<std::size_t>(l - 1 - r)]);
      g.AddScaled(term, -w);
    }
  }
  return ProjectGradientToParameters(g);
}

std::vector<DenseMatrix> RandomStatistics(std::int64_t k, int lmax,
                                          Rng& rng) {
  std::vector<DenseMatrix> p_hat;
  for (int l = 1; l <= lmax; ++l) {
    DenseMatrix z(k, k);
    for (std::int64_t i = 0; i < k; ++i) {
      for (std::int64_t j = 0; j < k; ++j) z(i, j) = rng.Uniform(0.0, 1.0);
    }
    p_hat.push_back(z);
  }
  return p_hat;
}

std::vector<double> RandomPoint(std::int64_t k, Rng& rng) {
  std::vector<double> at(static_cast<std::size_t>(NumFreeParameters(k)));
  for (double& v : at) v = 1.0 / static_cast<double>(k) + rng.Uniform(-0.1, 0.1);
  return at;
}

std::vector<double> GeometricWeights(int lmax, double lambda) {
  std::vector<double> weights;
  double w = 1.0;
  for (int l = 1; l <= lmax; ++l, w *= lambda) weights.push_back(w);
  return weights;
}

class DceGradientSweep
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DceGradientSweep, AnalyticGradientMatchesNumeric) {
  // Validates Prop. 4.7 end to end (entry gradient + structure projection)
  // across k, ℓmax and λ ∈ {1, 10}, at a random non-optimal point, against
  // central differences and against the reference term loop.
  const auto [k, lmax] = GetParam();
  for (const double lambda : {1.0, 10.0}) {
    SCOPED_TRACE(testing::Message() << "lambda " << lambda);
    Rng rng(31 * static_cast<std::uint64_t>(k) +
            static_cast<std::uint64_t>(lmax));
    const std::vector<DenseMatrix> p_hat = RandomStatistics(k, lmax, rng);
    const DceObjective objective =
        DceObjective::WithGeometricWeights(p_hat, lambda);
    const std::vector<double> at = RandomPoint(k, rng);

    std::vector<double> analytic;
    objective.Gradient(at, &analytic);
    const std::vector<double> numeric = NumericGradient(objective, at, 1e-6);
    ASSERT_EQ(analytic.size(), numeric.size());
    for (std::size_t i = 0; i < analytic.size(); ++i) {
      const double scale = std::max(1.0, std::fabs(numeric[i]));
      EXPECT_NEAR(analytic[i], numeric[i], 1e-4 * scale) << "param " << i;
    }

    const std::vector<double> reference =
        ReferenceGradient(p_hat, GeometricWeights(lmax, lambda), at);
    EXPECT_EQ(analytic, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DceGradientSweep,
    testing::Combine(testing::Values(2, 3, 4, 5, 7),
                     testing::Values(1, 2, 3, 4, 5)));

TEST(DceObjectiveTest, WorkspaceReusesPowersOnlyAtTheSameParams) {
  // Value(x), Value(y), Gradient(x) through one workspace must equal a
  // fresh Gradient(x): the second Value replaced the held powers, so the
  // gradient must not reuse them.
  Rng rng(17);
  const DceObjective objective =
      DceObjective::WithGeometricWeights(RandomStatistics(4, 5, rng), 10.0);
  const std::vector<double> x = RandomPoint(4, rng);
  const std::vector<double> y = RandomPoint(4, rng);
  std::vector<double> fresh;
  objective.Gradient(x, &fresh);

  DceObjective::Workspace workspace(objective);
  const double value_x = objective.Evaluate(x, &workspace, nullptr);
  EXPECT_EQ(objective.Evaluate(y, &workspace, nullptr), objective.Value(y));
  std::vector<double> memo;
  EXPECT_EQ(objective.Evaluate(x, &workspace, &memo), value_x);
  EXPECT_EQ(memo, fresh);
  // A Gradient straight after the Value at the same point reuses its
  // powers and still matches the fresh evaluation bit for bit.
  EXPECT_EQ(objective.Evaluate(y, &workspace, nullptr), objective.Value(y));
  std::vector<double> fresh_y;
  objective.Gradient(y, &fresh_y);
  EXPECT_EQ(objective.Evaluate(y, &workspace, &memo), objective.Value(y));
  EXPECT_EQ(memo, fresh_y);
  EXPECT_EQ(value_x, objective.Value(x));
}

TEST(DceFromStatisticsTest, RecoversPlantedHFromExactStatistics) {
  const DenseMatrix truth = MakeSkewCompatibility(3, 8.0);
  GraphStatistics stats;
  stats.p_hat = ExactStatistics(truth, 5);
  stats.m_raw = stats.p_hat;

  DceOptions options;
  options.restarts = 10;
  const EstimationResult result = EstimateDceFromStatistics(stats, 3, options);
  EXPECT_LT(FrobeniusDistance(result.h, truth), 1e-4)
      << result.h.ToString();
  EXPECT_EQ(result.restarts_used, 10);
}

TEST(DceFromStatisticsTest, EvenLmaxHasSignAmbiguity) {
  // With only even path lengths the energy cannot distinguish H from
  // permuted variants (Fig. 6b's "even ℓmax" observation): from the
  // uninformative start, ℓmax=2 may land in a wrong minimum whose energy is
  // still near zero. We only assert the optimizer reaches *an* energy
  // minimum; the label-level consequence is covered by integration tests.
  const DenseMatrix truth = MakeSkewCompatibility(3, 8.0);
  GraphStatistics stats;
  stats.p_hat = {truth.Power(2)};
  stats.m_raw = stats.p_hat;
  DceOptions options;
  options.max_path_length = 1;  // fit H¹ to the ℓ=2 statistics: wrong model
  const EstimationResult result = EstimateDceFromStatistics(stats, 3, options);
  EXPECT_GT(result.energy, -1e-12);
}

TEST(DceEndToEndTest, EstimatesFromDenselyLabeledGraph) {
  Rng rng(3);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(4000, 20.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  Labeling seeds = SampleStratifiedSeeds(planted.value().labels, 0.3, rng);

  DceOptions options;
  options.restarts = 10;
  const EstimationResult result =
      EstimateDce(planted.value().graph, seeds, options);
  EXPECT_LT(FrobeniusDistance(result.h, MakeSkewCompatibility(3, 3.0)), 0.08)
      << result.h.ToString();
}

TEST(DceEndToEndTest, SparseLabelsStillRecoverStructure) {
  Rng rng(4);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(8000, 25.0, 3, 8.0), rng);
  ASSERT_TRUE(planted.ok());
  Labeling seeds = SampleStratifiedSeeds(planted.value().labels, 0.01, rng);

  DceOptions options;
  options.restarts = 10;
  const EstimationResult result =
      EstimateDce(planted.value().graph, seeds, options);
  // Heterophily structure: H01 must dominate H00 as in the planted matrix.
  EXPECT_GT(result.h(0, 1), result.h(0, 0));
  EXPECT_GT(result.h(2, 2), result.h(2, 0));
}

TEST(DceEndToEndTest, TimingSplitIsPopulated) {
  Rng rng(5);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(1000, 10.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  Labeling seeds = SampleStratifiedSeeds(planted.value().labels, 0.1, rng);
  const EstimationResult result = EstimateDce(planted.value().graph, seeds);
  EXPECT_GT(result.seconds_summarization, 0.0);
  EXPECT_GT(result.seconds_optimization, 0.0);
  EXPECT_EQ(result.restarts_used, 1);
}

TEST(DceOptionsTest, InitialParamsOverrideIsUsed) {
  // Initializing at the optimum must keep the optimizer there.
  const DenseMatrix truth = MakeSkewCompatibility(3, 8.0);
  GraphStatistics stats;
  stats.p_hat = ExactStatistics(truth, 5);
  stats.m_raw = stats.p_hat;
  DceOptions options;
  options.restarts = 1;
  options.initial_params = ParametersFromCompatibility(truth);
  const EstimationResult result = EstimateDceFromStatistics(stats, 3, options);
  EXPECT_NEAR(result.energy, 0.0, 1e-16);
}

TEST(MakeRestartPointsTest, FirstPointIsCenter) {
  const auto points = MakeRestartPoints(3, 5, 0.05, 1);
  ASSERT_EQ(points.size(), 5u);
  for (double v : points[0]) EXPECT_DOUBLE_EQ(v, 1.0 / 3.0);
}

TEST(MakeRestartPointsTest, CornersAreDistinctSignPatterns) {
  const auto points = MakeRestartPoints(3, 9, 0.05, 1);
  std::set<std::vector<double>> distinct(points.begin(), points.end());
  EXPECT_EQ(distinct.size(), points.size());
  // Points 1..8 are the 2³ corners: each coordinate is 1/3 ± 0.05.
  for (std::size_t p = 1; p <= 8; ++p) {
    for (double v : points[p]) {
      EXPECT_NEAR(std::fabs(v - 1.0 / 3.0), 0.05, 1e-12);
    }
  }
}

TEST(MakeRestartPointsTest, LargeKFallsBackToRandomPoints) {
  // k = 10 → k* = 45 > 30 corner bits: the generator must still produce
  // in-range distinct points.
  const auto points = MakeRestartPoints(10, 6, 0.001, 2);
  ASSERT_EQ(points.size(), 6u);
  for (std::size_t p = 1; p < points.size(); ++p) {
    for (double v : points[p]) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 0.2);
    }
  }
}

}  // namespace
}  // namespace fgr
