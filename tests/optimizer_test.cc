#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "opt/gradient_descent.h"
#include "opt/lbfgs.h"
#include "opt/nelder_mead.h"
#include "opt/objective.h"

namespace fgr {
namespace {

// Convex quadratic with minimum at (1, -2, 3).
class Quadratic : public DifferentiableObjective {
 public:
  double Value(const std::vector<double>& x) const override {
    const double a = x[0] - 1.0;
    const double b = x[1] + 2.0;
    const double c = x[2] - 3.0;
    return a * a + 4.0 * b * b + 0.5 * c * c;
  }
  void Gradient(const std::vector<double>& x,
                std::vector<double>* g) const override {
    g->assign(3, 0.0);
    (*g)[0] = 2.0 * (x[0] - 1.0);
    (*g)[1] = 8.0 * (x[1] + 2.0);
    (*g)[2] = x[2] - 3.0;
  }
};

// Rosenbrock banana, minimum at (1, 1).
class Rosenbrock : public DifferentiableObjective {
 public:
  double Value(const std::vector<double>& x) const override {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  }
  void Gradient(const std::vector<double>& x,
                std::vector<double>* g) const override {
    g->assign(2, 0.0);
    (*g)[0] = -2.0 * (1.0 - x[0]) -
              400.0 * x[0] * (x[1] - x[0] * x[0]);
    (*g)[1] = 200.0 * (x[1] - x[0] * x[0]);
  }
};

TEST(LbfgsTest, SolvesQuadratic) {
  const OptimizeResult result = MinimizeLbfgs(Quadratic(), {0.0, 0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 1.0, 1e-6);
  EXPECT_NEAR(result.x[1], -2.0, 1e-6);
  EXPECT_NEAR(result.x[2], 3.0, 1e-6);
  EXPECT_NEAR(result.value, 0.0, 1e-10);
}

TEST(LbfgsTest, SolvesRosenbrock) {
  LbfgsOptions options;
  options.max_iterations = 500;
  const OptimizeResult result =
      MinimizeLbfgs(Rosenbrock(), {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], 1.0, 1e-4);
}

TEST(LbfgsTest, EmptyParameterVector) {
  const FunctionDifferentiableObjective constant(
      [](const std::vector<double>&) { return 5.0; },
      [](const std::vector<double>&, std::vector<double>* g) { g->clear(); });
  const OptimizeResult result = MinimizeLbfgs(constant, {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.value, 5.0);
}

TEST(LbfgsTest, ZeroHistoryIsACheckFailure) {
  LbfgsOptions options;
  options.history = 0;
  EXPECT_DEATH(MinimizeLbfgs(Rosenbrock(), {-1.2, 1.0}, options),
               "at least one");
}

TEST(LbfgsTest, ShortHistoryRingStillSolvesRosenbrock) {
  // history 1 and 2 wrap the (s, y) ring on every accepted step.
  for (const int history : {1, 2}) {
    LbfgsOptions options;
    options.history = history;
    options.max_iterations = 2000;
    const OptimizeResult result =
        MinimizeLbfgs(Rosenbrock(), {-1.2, 1.0}, options);
    EXPECT_NEAR(result.x[0], 1.0, 1e-4) << "history " << history;
    EXPECT_NEAR(result.x[1], 1.0, 1e-4) << "history " << history;
  }
}

TEST(LbfgsTest, AlreadyAtMinimum) {
  const OptimizeResult result = MinimizeLbfgs(Quadratic(), {1.0, -2.0, 3.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.value, 0.0, 1e-12);
}

TEST(GradientDescentTest, SolvesQuadratic) {
  const OptimizeResult result =
      MinimizeGradientDescent(Quadratic(), {5.0, 5.0, 5.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], -2.0, 1e-4);
  EXPECT_NEAR(result.x[2], 3.0, 1e-4);
}

TEST(GradientDescentTest, MakesProgressOnRosenbrock) {
  GradientDescentOptions options;
  options.max_iterations = 5000;
  const OptimizeResult result =
      MinimizeGradientDescent(Rosenbrock(), {-1.2, 1.0}, options);
  EXPECT_LT(result.value, Rosenbrock().Value({-1.2, 1.0}) * 1e-3);
}

TEST(NelderMeadTest, SolvesQuadraticWithoutGradients) {
  NelderMeadOptions options;
  options.max_iterations = 2000;
  const OptimizeResult result =
      MinimizeNelderMead(Quadratic(), {0.0, 0.0, 0.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], -2.0, 1e-3);
  EXPECT_NEAR(result.x[2], 3.0, 1e-3);
}

TEST(NelderMeadTest, HandlesPiecewiseConstantPlateaus) {
  // Step-function objective like the Holdout accuracy surface: NM must not
  // crash or loop forever, and should land in the low plateau.
  const FunctionObjective steps([](const std::vector<double>& x) {
    return std::floor(std::fabs(x[0] - 2.0) * 4.0);
  });
  NelderMeadOptions options;
  options.max_iterations = 200;
  options.initial_step = 1.0;
  const OptimizeResult result = MinimizeNelderMead(steps, {-3.0}, options);
  EXPECT_LE(result.value, 1.0);
}

TEST(NelderMeadTest, EmptyParameterVector) {
  const FunctionObjective constant(
      [](const std::vector<double>&) { return 2.5; });
  const OptimizeResult result = MinimizeNelderMead(constant, {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.value, 2.5);
}

TEST(NumericGradientTest, MatchesAnalyticOnQuadratic) {
  const Quadratic quadratic;
  const std::vector<double> x = {0.3, -1.0, 2.0};
  std::vector<double> analytic;
  quadratic.Gradient(x, &analytic);
  const std::vector<double> numeric = NumericGradient(quadratic, x);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(numeric[i], analytic[i], 1e-5);
  }
}

}  // namespace
}  // namespace fgr
