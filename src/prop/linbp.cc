#include "prop/linbp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "matrix/spectral.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace fgr {

LinBpResult RunLinBp(const Graph& graph, const Labeling& seeds,
                     const DenseMatrix& h, const LinBpOptions& options) {
  return RunLinBp(graph.adjacency().View(), graph.degrees(), seeds, h,
                  options);
}

LinBpResult RunLinBp(const CsrPanelView& adjacency,
                     const std::vector<double>& degrees,
                     const Labeling& seeds, const DenseMatrix& h,
                     const LinBpOptions& options) {
  WholeMatrixSource whole(adjacency);
  return RunLinBpOverPanels(whole, seeds, h, options, &degrees).value();
}

Result<LinBpResult> RunLinBpOverPanels(PanelSource& source,
                                       const Labeling& seeds,
                                       const DenseMatrix& h,
                                       const LinBpOptions& options,
                                       const std::vector<double>* degrees) {
  const std::int64_t n = source.num_nodes();
  FGR_CHECK_EQ(seeds.num_nodes(), n);
  FGR_CHECK(degrees == nullptr ||
            static_cast<std::int64_t>(degrees->size()) == n);
  FGR_CHECK_EQ(h.rows(), h.cols());
  FGR_CHECK_EQ(h.rows(), static_cast<std::int64_t>(seeds.num_classes()));
  FGR_CHECK_GT(options.iterations, 0);
  FGR_CHECK(options.convergence_scale > 0.0);

  LinBpResult result;
  // Center by the mean entry: identical to CenterCompatibility (−1/k) for a
  // doubly-stochastic H, and — unlike a fixed −1/k shift — it maps H and
  // H + c to the same residual matrix, which realizes Theorem 3.1's constant
  // shift invariance exactly (same ε, same centered propagation).
  DenseMatrix h_centered = h;
  h_centered.AddConstant(-h.Sum() /
                         static_cast<double>(h.rows() * h.cols()));
  if (options.rho_w_hint > 0.0) {
    result.rho_w = options.rho_w_hint;
  } else {
    Result<double> rho_w = SpectralRadius(source);
    if (!rho_w.ok()) return rho_w.status();
    result.rho_w = rho_w.value();
  }
  result.rho_h = SpectralRadius(h_centered);

  // ε = s / (ρ(W)·ρ(H̃)); degenerate spectra (empty graph or uniform H,
  // which carries no signal) fall back to a harmless ε.
  const double denom = result.rho_w * result.rho_h;
  result.epsilon =
      denom > 1e-12 ? options.convergence_scale / denom
                    : (result.rho_w > 1e-12
                           ? options.convergence_scale / result.rho_w
                           : options.convergence_scale);

  DenseMatrix h_prop = options.centered || options.echo_cancellation
                           ? h_centered
                           : h;
  h_prop.Scale(result.epsilon);

  // Echo cancellation needs Ĥ² and the degree-scaled term; sum the degrees
  // in one extra pass only when the caller has none to hand.
  DenseMatrix h_prop_sq;
  std::vector<double> summed_degrees;
  if (options.echo_cancellation) {
    h_prop_sq = h_prop.Multiply(h_prop);
    if (degrees == nullptr) {
      summed_degrees.assign(static_cast<std::size_t>(n), 0.0);
      FGR_RETURN_IF_ERROR(source.ForEachPanel([&](const CsrPanelView& panel) {
        panel.OrderedRowSumsInto(summed_degrees.data() + panel.first_row());
      }));
      degrees = &summed_degrees;
    }
  }

  const DenseMatrix x = seeds.ToOneHot();
  DenseMatrix f = x;
  // W·F scratch never escapes, so it takes the SIMD-friendly padded row
  // stride; f / f_next become result.beliefs and stay dense.
  DenseMatrix wf = DenseMatrix::WithPaddedStride(x.rows(), x.cols());
  DenseMatrix f_next(x.rows(), x.cols());
  const std::int64_t k = h_prop.cols();

  for (int iter = 0; iter < options.iterations; ++iter) {
    FGR_TRACE_SPAN("prop/linbp_iteration", iter);
    result.iterations_run = iter + 1;
    // f_next = X + (W F) H', panel by panel: each panel fills its rows of
    // W·F, then folds them with the small k×k matrix. The fold reads f,
    // never f_next, so rows are independent and no panel shape can change
    // any value.
    FGR_RETURN_IF_ERROR(source.ForEachPanel([&](const CsrPanelView& panel) {
      panel.MultiplyInto(f, &wf);
      ParallelFor(panel.first_row(), panel.first_row() + panel.rows(),
                  [&](std::int64_t i) {
        const double* wf_row = wf.RowPtr(i);
        const double* x_row = x.RowPtr(i);
        double* out_row = f_next.RowPtr(i);
        for (std::int64_t j = 0; j < k; ++j) {
          double sum = x_row[j];
          for (std::int64_t c = 0; c < k; ++c) {
            sum += wf_row[c] * h_prop(c, j);
          }
          out_row[j] = sum;
        }
        if (options.echo_cancellation) {
          // − d_i · (F H̃²)_i:
          const double* f_row = f.RowPtr(i);
          const double d = (*degrees)[static_cast<std::size_t>(i)];
          for (std::int64_t j = 0; j < k; ++j) {
            double echo = 0.0;
            for (std::int64_t c = 0; c < k; ++c) {
              echo += f_row[c] * h_prop_sq(c, j);
            }
            out_row[j] -= d * echo;
          }
        }
      });
    }));
    if (options.early_stop_tolerance > 0.0) {
      // Sharded max-reduction: max is order-independent, so the threaded
      // delta matches the serial one exactly.
      const int shards = NumShards(f.rows());
      std::vector<double> shard_delta(static_cast<std::size_t>(shards), 0.0);
      ParallelForShards(
          0, f.rows(), shards,
          [&](std::int64_t lo, std::int64_t hi, int shard) {
            double local = 0.0;
            for (std::int64_t i = lo; i < hi; ++i) {
              const double* a = f.RowPtr(i);
              const double* b = f_next.RowPtr(i);
              for (std::int64_t j = 0; j < f.cols(); ++j) {
                local = std::max(local, std::fabs(a[j] - b[j]));
              }
            }
            shard_delta[static_cast<std::size_t>(shard)] = local;
          });
      double delta = 0.0;
      for (double local : shard_delta) delta = std::max(delta, local);
      obs::TraceCounter("prop/linbp_residual", delta);
      std::swap(f, f_next);
      if (delta < options.early_stop_tolerance) break;
    } else {
      std::swap(f, f_next);
    }
  }
  result.beliefs = std::move(f);
  return result;
}

Labeling LabelsFromBeliefs(const DenseMatrix& beliefs, const Labeling& seeds) {
  FGR_CHECK_EQ(beliefs.rows(), seeds.num_nodes());
  FGR_CHECK_EQ(beliefs.cols(),
               static_cast<std::int64_t>(seeds.num_classes()));
  Labeling labels(seeds.num_nodes(), seeds.num_classes());
  for (NodeId i = 0; i < seeds.num_nodes(); ++i) {
    if (seeds.is_labeled(i)) {
      labels.set_label(i, seeds.label(i));
    } else {
      labels.set_label(i, static_cast<ClassId>(beliefs.ArgmaxInRow(i)));
    }
  }
  return labels;
}

}  // namespace fgr
