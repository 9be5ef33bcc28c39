// Ablation: what the explicit gradient (Prop. 4.7) buys.
//
// The same DCE energy is minimized three ways from the same start points:
// L-BFGS with the analytic gradient (the library default), plain gradient
// descent with the analytic gradient, and gradient-free Nelder-Mead. Rows
// report time and final energy per k — the analytic-gradient quasi-Newton
// path is both the fastest and the most reliable as k² parameters grow.

#include <vector>

#include "bench_util.h"

namespace fgr {
namespace bench {
namespace {

void Run() {
  Table table({"k", "k_star", "lbfgs_sec", "lbfgs_energy", "gd_sec",
               "gd_energy", "neldermead_sec", "neldermead_energy"});
  for (std::int64_t k = 2; k <= 7; ++k) {
    double lbfgs_sec = 0.0;
    double gd_sec = 0.0;
    double nm_sec = 0.0;
    std::vector<double> lbfgs_energy;
    std::vector<double> gd_energy;
    std::vector<double> nm_energy;
    for (int trial = 0; trial < Trials(); ++trial) {
      Rng rng(2700 + static_cast<std::uint64_t>(trial));
      const Instance instance =
          MakeInstance(MakeSkewConfig(8000, 20.0, k, 3.0), rng);
      const Labeling seeds = SampleStratifiedSeeds(instance.truth, 0.03, rng);
      const GraphStatistics stats =
          ComputeGraphStatistics(instance.graph, seeds, 5);
      const DceObjective dce = DceObjective::WithGeometricWeights(
          stats.p_hat, /*lambda=*/10.0);
      // Every optimizer evaluates through one workspace, as DCEr does.
      DceObjective::Workspace workspace(dce);
      const DceWorkspaceObjective objective(dce, &workspace);
      const auto starts =
          MakeRestartPoints(k, 10, 0.5 / static_cast<double>(k * k),
                            static_cast<std::uint64_t>(trial));

      double best_lbfgs = 0.0;
      double best_gd = 0.0;
      double best_nm = 0.0;
      bool first = true;
      for (const auto& start : starts) {
        Stopwatch lbfgs_timer;
        const OptimizeResult lbfgs = MinimizeLbfgs(objective, start);
        lbfgs_sec += lbfgs_timer.Seconds();

        Stopwatch gd_timer;
        const OptimizeResult gd = MinimizeGradientDescent(objective, start);
        gd_sec += gd_timer.Seconds();

        Stopwatch nm_timer;
        NelderMeadOptions nm_options;
        nm_options.max_iterations = 2000;
        nm_options.initial_step = 0.5 / static_cast<double>(k);
        const OptimizeResult nm =
            MinimizeNelderMead(objective, start, nm_options);
        nm_sec += nm_timer.Seconds();

        if (first || lbfgs.value < best_lbfgs) best_lbfgs = lbfgs.value;
        if (first || gd.value < best_gd) best_gd = gd.value;
        if (first || nm.value < best_nm) best_nm = nm.value;
        first = false;
      }
      lbfgs_energy.push_back(best_lbfgs);
      gd_energy.push_back(best_gd);
      nm_energy.push_back(best_nm);
    }
    table.NewRow()
        .Add(k)
        .Add(NumFreeParameters(k))
        .Add(lbfgs_sec / Trials(), 5)
        .Add(Aggregate(lbfgs_energy).mean, 6)
        .Add(gd_sec / Trials(), 5)
        .Add(Aggregate(gd_energy).mean, 6)
        .Add(nm_sec / Trials(), 5)
        .Add(Aggregate(nm_energy).mean, 6);
  }
  Emit(table, "ablation_gradient",
       "Ablation: optimizer comparison on the DCE energy (10 restarts each)");
}

}  // namespace
}  // namespace bench
}  // namespace fgr

int main(int argc, char** argv) {
  fgr::bench::Init(argc, argv);
  fgr::bench::Run();
  return 0;
}
