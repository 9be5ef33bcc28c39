#include "opt/lbfgs.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fgr {
namespace {

double Dot(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  return Dot(a.data(), b.data(), a.size());
}

double MaxAbs(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) best = std::max(best, std::fabs(x));
  return best;
}

}  // namespace

OptimizeResult MinimizeLbfgs(const DifferentiableObjective& objective,
                             std::vector<double> x0,
                             const LbfgsOptions& options) {
  FGR_CHECK_GE(options.history, 1) << "L-BFGS needs at least one (s, y) pair";
  const std::size_t n = x0.size();
  OptimizeResult result;
  result.x = std::move(x0);
  result.value = objective.Value(result.x);
  ++result.function_evaluations;
  if (n == 0) {  // Nothing to optimize (k = 1).
    result.converged = true;
    return result;
  }

  std::vector<double> gradient(n);
  objective.Gradient(result.x, &gradient);
  FGR_CHECK_EQ(gradient.size(), n);

  // (s, y) history for the two-loop recursion: a ring of `slots` pairs
  // allocated once (a run never stores more pairs than it has iterations),
  // so iterations allocate nothing. Pair i, counted from the oldest, lives
  // at slot (oldest + i) % slots.
  const auto slots = static_cast<std::size_t>(
      std::max(1, std::min(options.history, options.max_iterations)));
  std::vector<double> s_history(slots * n);
  std::vector<double> y_history(slots * n);
  std::vector<double> rho_history(slots);
  std::size_t oldest = 0;
  std::size_t stored = 0;
  const auto s_at = [&](std::size_t i) {
    return s_history.data() + (oldest + i) % slots * n;
  };
  const auto y_at = [&](std::size_t i) {
    return y_history.data() + (oldest + i) % slots * n;
  };
  const auto rho_at = [&](std::size_t i) -> double& {
    return rho_history[(oldest + i) % slots];
  };

  std::vector<double> direction(n);
  std::vector<double> x_next(n);
  std::vector<double> gradient_next(n);
  std::vector<double> s(n);
  std::vector<double> y(n);
  std::vector<double> alpha(slots);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    if (MaxAbs(gradient) <= options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion: direction = -H_k * gradient.
    direction = gradient;
    for (std::size_t i = stored; i-- > 0;) {
      alpha[i] = rho_at(i) * Dot(s_at(i), direction.data(), n);
      const double* y_i = y_at(i);
      for (std::size_t j = 0; j < n; ++j) direction[j] -= alpha[i] * y_i[j];
    }
    if (stored > 0) {
      // Initial Hessian scaling gamma = sᵀy / yᵀy.
      const double* s_new = s_at(stored - 1);
      const double* y_new = y_at(stored - 1);
      const double gamma =
          Dot(s_new, y_new, n) / std::max(Dot(y_new, y_new, n), 1e-300);
      for (double& d : direction) d *= gamma;
    }
    for (std::size_t i = 0; i < stored; ++i) {
      const double beta = rho_at(i) * Dot(y_at(i), direction.data(), n);
      const double* s_i = s_at(i);
      for (std::size_t j = 0; j < n; ++j) {
        direction[j] += (alpha[i] - beta) * s_i[j];
      }
    }
    for (double& d : direction) d = -d;

    double directional = Dot(gradient, direction);
    if (directional >= 0.0) {
      // Not a descent direction (can happen on non-convex DCE energies):
      // fall back to steepest descent.
      for (std::size_t j = 0; j < n; ++j) direction[j] = -gradient[j];
      directional = -Dot(gradient, gradient);
    }

    // Weak-Wolfe line search (Lewis-Overton bisection): find a step with
    // both sufficient decrease and enough curvature that sᵀy > 0.
    double step = 1.0;
    double step_lo = 0.0;
    double step_hi = -1.0;  // -1 means "no upper bracket yet"
    double value_next = result.value;
    bool step_found = false;
    for (int ls = 0; ls < options.max_line_search_steps; ++ls) {
      for (std::size_t j = 0; j < n; ++j) {
        x_next[j] = result.x[j] + step * direction[j];
      }
      value_next = objective.Value(x_next);
      ++result.function_evaluations;
      if (value_next >
          result.value + options.armijo_c1 * step * directional) {
        step_hi = step;  // too long: decrease violated
      } else {
        objective.Gradient(x_next, &gradient_next);
        if (Dot(gradient_next, direction) <
            options.wolfe_c2 * directional) {
          step_lo = step;  // too short: curvature violated
        } else {
          step_found = true;
          break;
        }
      }
      step = step_hi > 0.0 ? 0.5 * (step_lo + step_hi) : 2.0 * step;
    }
    if (!step_found) {
      // Accept the best Armijo point if we at least bracketed one; else we
      // are at numerical resolution.
      if (step_lo > 0.0) {
        step = step_lo;
        for (std::size_t j = 0; j < n; ++j) {
          x_next[j] = result.x[j] + step * direction[j];
        }
        value_next = objective.Value(x_next);
        ++result.function_evaluations;
        objective.Gradient(x_next, &gradient_next);
      } else {
        result.converged =
            MaxAbs(gradient) <= 1e2 * options.gradient_tolerance;
        break;
      }
    }

    // Curvature update: the new pair takes a free slot, or the oldest
    // pair's once the ring is full.
    for (std::size_t j = 0; j < n; ++j) {
      s[j] = x_next[j] - result.x[j];
      y[j] = gradient_next[j] - gradient[j];
    }
    const double sy = Dot(s, y);
    if (sy > 1e-12) {
      if (stored == slots) {
        oldest = (oldest + 1) % slots;
        --stored;
      }
      std::copy(s.begin(), s.end(), s_at(stored));
      std::copy(y.begin(), y.end(), y_at(stored));
      rho_at(stored) = 1.0 / sy;
      ++stored;
    }

    const double improvement = result.value - value_next;
    result.x = x_next;
    result.value = value_next;
    gradient = gradient_next;
    if (improvement >= 0.0 &&
        improvement <=
            options.value_tolerance * (std::fabs(result.value) + 1.0)) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace fgr
