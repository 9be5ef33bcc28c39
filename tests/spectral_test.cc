#include "matrix/spectral.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/fgrbin.h"
#include "data/prefetching_panel_reader.h"
#include "gen/planted.h"
#include "matrix/dense.h"
#include "matrix/panel_source.h"
#include "matrix/sparse.h"
#include "util/parallel.h"
#include "util/random.h"

namespace fgr {
namespace {

class ThreadGuard {
 public:
  ~ThreadGuard() { SetNumThreads(0); }
};

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Undirected simple graph on `n` nodes from an edge list.
SparseMatrix Adjacency(std::int64_t n,
                       const std::vector<std::pair<int, int>>& edges) {
  std::vector<Triplet> triplets;
  for (const auto& [u, v] : edges) {
    triplets.push_back({u, v, 1.0});
    triplets.push_back({v, u, 1.0});
  }
  return SparseMatrix::FromTriplets(n, n, triplets);
}

// The 5000-node planted graph the pass-count and thread tests share.
const Graph& PlantedGraph() {
  static const Graph& graph = *[] {
    Rng rng(2024);
    auto planted =
        GeneratePlantedGraph(MakeSkewConfig(5000, 10.0, 3, 3.0), rng);
    FGR_CHECK(planted.ok());
    return new Graph(std::move(planted.value().graph));
  }();
  return graph;
}

// A whole-matrix source that counts its passes and, when `fail_on_pass`
// is positive, fails that pass (1-based) and every later one.
class CountingSource final : public PanelSource {
 public:
  explicit CountingSource(const CsrPanelView& view, int fail_on_pass = 0)
      : whole_(view), fail_on_pass_(fail_on_pass) {}

  std::int64_t num_nodes() const override { return whole_.num_nodes(); }

  Status ForEachPanel(const PanelFn& fn) override {
    ++passes_;
    if (fail_on_pass_ > 0 && passes_ >= fail_on_pass_) {
      return Status::OutOfRange("injected failure on pass " +
                                std::to_string(passes_));
    }
    return whole_.ForEachPanel(fn);
  }

  int passes() const { return passes_; }

 private:
  WholeMatrixSource whole_;
  int fail_on_pass_;
  int passes_ = 0;
};

TEST(SpectralTest, DiagonalSparseMatrix) {
  SparseMatrix d = SparseMatrix::Diagonal({1.0, -4.0, 2.0});
  EXPECT_NEAR(SpectralRadius(d), 4.0, 1e-6);
}

TEST(SpectralTest, DenseTwoByTwoAnalytic) {
  // Eigenvalues of [[2, 1], [1, 2]] are 1 and 3.
  DenseMatrix m = DenseMatrix::FromRows({{2, 1}, {1, 2}});
  EXPECT_NEAR(SpectralRadius(m), 3.0, 1e-6);
}

TEST(SpectralTest, DenseNegativeDominantEigenvalue) {
  // [[0, 2], [2, 0]] has eigenvalues ±2; the radius is 2.
  DenseMatrix m = DenseMatrix::FromRows({{0, 2}, {2, 0}});
  EXPECT_NEAR(SpectralRadius(m), 2.0, 1e-6);
}

TEST(SpectralTest, CompleteGraphAdjacency) {
  // K_4 adjacency has spectral radius n-1 = 3.
  std::vector<Triplet> triplets;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) triplets.push_back({i, j, 1.0});
    }
  }
  SparseMatrix k4 = SparseMatrix::FromTriplets(4, 4, triplets);
  EXPECT_NEAR(SpectralRadius(k4), 3.0, 1e-5);
}

TEST(SpectralTest, PathGraphKnownRadius) {
  // Path on 3 nodes: eigenvalues {−√2, 0, √2}.
  SparseMatrix path = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 1, 1.0}});
  EXPECT_NEAR(SpectralRadius(path), std::sqrt(2.0), 1e-6);
}

TEST(SpectralTest, ScalingIsLinear) {
  DenseMatrix m = DenseMatrix::FromRows({{2, 1}, {1, 2}});
  const double base = SpectralRadius(m);
  m.Scale(2.5);
  EXPECT_NEAR(SpectralRadius(m), 2.5 * base, 1e-5);
}

TEST(SpectralTest, ZeroMatrixHasZeroRadius) {
  DenseMatrix z(3, 3);
  EXPECT_EQ(SpectralRadius(z), 0.0);
  SparseMatrix empty = SparseMatrix::FromTriplets(3, 3, {});
  EXPECT_EQ(SpectralRadius(empty), 0.0);
}

TEST(SpectralTest, EmptyMatrix) {
  DenseMatrix m(0, 0);
  EXPECT_EQ(SpectralRadius(m), 0.0);
}

TEST(SpectralTest, DoublyStochasticMatrixHasRadiusOne) {
  DenseMatrix h = DenseMatrix::FromRows(
      {{0.2, 0.6, 0.2}, {0.6, 0.2, 0.2}, {0.2, 0.2, 0.6}});
  EXPECT_NEAR(SpectralRadius(h), 1.0, 1e-6);
}

TEST(SpectralTest, BipartiteStarHasSymmetricSpectrum) {
  // K_{1,5}: eigenvalues ±√5 and 0 (×4), so λ_min = −λ_max.
  const SparseMatrix star =
      Adjacency(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EXPECT_NEAR(SpectralRadius(star), std::sqrt(5.0), 1e-12);
}

TEST(SpectralTest, DisconnectedGraphTakesTheLargerComponent) {
  // K_5 (radius 4) next to a 6-node path (radius 2·cos(π/7) < 2).
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) edges.push_back({i, j});
  }
  for (int i = 5; i < 10; ++i) edges.push_back({i, i + 1});
  EXPECT_NEAR(SpectralRadius(Adjacency(11, edges)), 4.0, 1e-6);
}

TEST(SpectralTest, PlantedGraphConvergesInFewPasses) {
  const Graph& graph = PlantedGraph();
  SpectralRadiusOptions reference_options;
  reference_options.tolerance = 1e-13;
  const double reference =
      SpectralRadius(graph.adjacency(), reference_options);

  // Default options: the estimate is good to the stopping tolerance.
  CountingSource source(graph.adjacency().View());
  const Result<double> radius = SpectralRadius(source);
  ASSERT_TRUE(radius.ok()) << radius.status().ToString();
  EXPECT_LE(source.passes(), 40);
  EXPECT_NEAR(radius.value(), reference,
              SpectralRadiusOptions().tolerance * reference);

  // A tighter tolerance reaches 1e-9 relative within the same pass budget.
  SpectralRadiusOptions tight;
  tight.tolerance = 1e-10;
  CountingSource tight_source(graph.adjacency().View());
  const Result<double> tight_radius = SpectralRadius(tight_source, tight);
  ASSERT_TRUE(tight_radius.ok()) << tight_radius.status().ToString();
  EXPECT_LE(tight_source.passes(), 40);
  EXPECT_NEAR(tight_radius.value(), reference, 1e-9 * reference);
}

TEST(SpectralTest, RadiusBitsMatchAcrossThreadCounts) {
  ThreadGuard guard;
  const Graph& graph = PlantedGraph();
  SetNumThreads(1);
  const double serial = SpectralRadius(graph.adjacency());
  SetNumThreads(4);
  const double threaded = SpectralRadius(graph.adjacency());
  EXPECT_EQ(Bits(threaded), Bits(serial));
}

TEST(SpectralTest, StreamedPanelsMatchTheWholeMatrixBits) {
  Rng rng(77);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(700, 8.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  const Graph& graph = planted.value().graph;
  const std::string path = testing::TempDir() + "/spectral_stream.fgrbin";
  ASSERT_TRUE(WriteFgrBin(graph, nullptr, nullptr, path).ok());
  const double in_core = SpectralRadius(graph.adjacency());

  for (std::int64_t rows : {std::int64_t{1}, std::int64_t{7},
                            graph.num_nodes()}) {
    BlockRowReaderOptions options;
    options.rows_per_panel = rows;
    auto source = StreamedPanelSource::Open(path, options, graph.num_nodes());
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    const Result<double> streamed = SpectralRadius(*source.value());
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_EQ(Bits(streamed.value()), Bits(in_core)) << "panel rows " << rows;
  }
}

TEST(SpectralTest, FailedPassIsTheLastPass) {
  // Under Lanczos a zero product does not end the recurrence, so a failed
  // pass must stop the iteration itself, with no further pass.
  const Graph& graph = PlantedGraph();
  for (int fail_on_pass : {1, 2, 5}) {
    CountingSource source(graph.adjacency().View(), fail_on_pass);
    const Result<double> radius = SpectralRadius(source);
    ASSERT_FALSE(radius.ok()) << "pass " << fail_on_pass;
    EXPECT_EQ(radius.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(radius.status().message(),
              "injected failure on pass " + std::to_string(fail_on_pass));
    EXPECT_EQ(source.passes(), fail_on_pass);
  }
}

}  // namespace
}  // namespace fgr
