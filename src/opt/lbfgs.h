// Limited-memory BFGS minimizer (two-loop recursion, weak-Wolfe bisection
// line search).
//
// This is the gradient-based optimizer behind MCE, LCE, and DCE/DCEr. The
// paper uses SciPy's SLSQP; an unconstrained quasi-Newton method is
// sufficient here because the free-parameter encoding of H (Eq. 6 in the
// paper) already bakes the symmetry and double-stochasticity constraints
// into the parameterization.

#ifndef FGR_OPT_LBFGS_H_
#define FGR_OPT_LBFGS_H_

#include <vector>

#include "opt/objective.h"

namespace fgr {

struct LbfgsOptions {
  int max_iterations = 300;
  int history = 8;                 // (s, y) pairs retained; must be >= 1
  double gradient_tolerance = 1e-9;  // stop when ‖g‖∞ ≤ this
  double value_tolerance = 1e-14;    // stop on relative value stagnation
  int max_line_search_steps = 50;
  // Weak-Wolfe line-search constants: sufficient decrease (c1) and
  // curvature (c2). The curvature condition guarantees sᵀy > 0, keeping the
  // quasi-Newton updates well-posed.
  double armijo_c1 = 1e-4;
  double wolfe_c2 = 0.9;
};

struct OptimizeResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
  int function_evaluations = 0;
};

// Allocates its buffers once per call; iterations allocate nothing beyond
// what the objective's own Value/Gradient do.
OptimizeResult MinimizeLbfgs(const DifferentiableObjective& objective,
                             std::vector<double> x0,
                             const LbfgsOptions& options = {});

}  // namespace fgr

#endif  // FGR_OPT_LBFGS_H_
