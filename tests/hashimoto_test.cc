// The Hashimoto (non-backtracking) operator, as a test oracle for the
// paper's factorized recurrence.
//
// Prior work on non-backtracking walks (Section 2.6 of the paper: graph
// sampling, spectral clustering, centrality) replaces the n×n adjacency
// matrix with the 2m×2m "Hashimoto matrix" B over *directed edges*:
//   B[(u→v), (v→w)] = 1  iff  w ≠ u.
// Powers of B count non-backtracking paths in an augmented state space with
// O(m·(d−1)) nonzeros. The paper's contribution is precisely that its
// factorized recurrence (Prop. 4.3 / Alg. 4.4) achieves the same counts
// with n×k intermediates and no augmented space. The construction below is
// the reference those counts are checked against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/path_stats.h"
#include "gen/planted.h"
#include "graph/graph.h"
#include "matrix/sparse.h"
#include "util/check.h"
#include "util/random.h"

namespace fgr {
namespace {

// The directed-edge state space of a graph: each undirected edge {u, v}
// contributes states (u→v) and (v→u), numbered in the adjacency's CSR
// order, which is already (tail, head)-sorted.
class DirectedEdgeSpace {
 public:
  explicit DirectedEdgeSpace(const Graph& graph) {
    const SparseMatrix& w = graph.adjacency();
    const std::int64_t n = graph.num_nodes();
    tail_offsets_.assign(w.row_ptr().begin(), w.row_ptr().end());
    heads_.assign(w.col_idx().begin(), w.col_idx().end());
    for (NodeId u = 0; u < n; ++u) {
      tails_.insert(tails_.end(),
                    static_cast<std::size_t>(tail_offsets_[u + 1] -
                                             tail_offsets_[u]),
                    u);
    }
  }

  std::int64_t num_states() const {
    return static_cast<std::int64_t>(tails_.size());
  }
  NodeId tail(std::int64_t state) const {
    return tails_[static_cast<std::size_t>(state)];
  }
  NodeId head(std::int64_t state) const {
    return heads_[static_cast<std::size_t>(state)];
  }

  // State id of (u→v); u and v must be adjacent.
  std::int64_t StateOf(NodeId u, NodeId v) const {
    FGR_CHECK(u >= 0 && u + 1 < static_cast<NodeId>(tail_offsets_.size()));
    const auto begin =
        heads_.begin() + tail_offsets_[static_cast<std::size_t>(u)];
    const auto end =
        heads_.begin() + tail_offsets_[static_cast<std::size_t>(u) + 1];
    const auto it = std::lower_bound(begin, end, v);
    FGR_CHECK(it != end && *it == v)
        << "no directed edge " << u << "->" << v;
    return static_cast<std::int64_t>(it - heads_.begin());
  }

 private:
  std::vector<NodeId> tails_;
  std::vector<NodeId> heads_;
  std::vector<std::int64_t> tail_offsets_;  // states of tail u: [u], [u+1]
};

// The 2m×2m Hashimoto matrix of the graph.
SparseMatrix BuildHashimotoMatrix(const Graph& graph,
                                  const DirectedEdgeSpace& edges) {
  std::vector<Triplet> triplets;
  for (std::int64_t s = 0; s < edges.num_states(); ++s) {
    const NodeId u = edges.tail(s);
    const NodeId v = edges.head(s);
    // Successors: (v→w) for every neighbor w of v except backtracking to u.
    for (NodeId w : graph.Neighbors(v)) {
      if (w != u) triplets.push_back({s, edges.StateOf(v, w), 1.0});
    }
  }
  return SparseMatrix::FromTriplets(edges.num_states(), edges.num_states(),
                                    std::move(triplets));
}

// The n×n count of non-backtracking paths of length `length` ≥ 1 from u to
// v: Σ_{(u→a)} Σ_{(b→v)} B^(length−1)[(u→a), (b→v)].
SparseMatrix NbPathCountsViaHashimoto(const Graph& graph, int length) {
  FGR_CHECK_GE(length, 1);
  const DirectedEdgeSpace edges(graph);
  const SparseMatrix b = BuildHashimotoMatrix(graph, edges);
  SparseMatrix b_power = SparseMatrix::Identity(edges.num_states());
  for (int step = 1; step < length; ++step) b_power = SpGemm(b_power, b);

  // Aggregate states back to node pairs: (tail of source, head of target).
  std::vector<Triplet> counts;
  counts.reserve(static_cast<std::size_t>(b_power.nnz()));
  for (std::int64_t s = 0; s < b_power.rows(); ++s) {
    for (auto p = b_power.row_ptr()[static_cast<std::size_t>(s)];
         p < b_power.row_ptr()[static_cast<std::size_t>(s) + 1]; ++p) {
      const std::int64_t t = b_power.col_idx()[static_cast<std::size_t>(p)];
      counts.push_back({edges.tail(s), edges.head(t),
                        b_power.values()[static_cast<std::size_t>(p)]});
    }
  }
  return SparseMatrix::FromTriplets(graph.num_nodes(), graph.num_nodes(),
                                    std::move(counts));
}

TEST(DirectedEdgeSpaceTest, TwoStatesPerUndirectedEdge) {
  const Graph graph = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}}).value();
  const DirectedEdgeSpace edges(graph);
  EXPECT_EQ(edges.num_states(), 2 * graph.num_edges());
}

TEST(DirectedEdgeSpaceTest, StateLookupRoundTrip) {
  const Graph graph = Graph::FromEdges(4, {{0, 1}, {1, 2}, {0, 2}}).value();
  const DirectedEdgeSpace edges(graph);
  for (std::int64_t s = 0; s < edges.num_states(); ++s) {
    EXPECT_EQ(edges.StateOf(edges.tail(s), edges.head(s)), s);
  }
}

TEST(DirectedEdgeSpaceDeathTest, MissingEdgeChecks) {
  const Graph graph = Graph::FromEdges(3, {{0, 1}}).value();
  const DirectedEdgeSpace edges(graph);
  EXPECT_DEATH(edges.StateOf(0, 2), "no directed edge");
}

TEST(HashimotoTest, PathGraphStructure) {
  // Path 0-1-2: from state (0→1) the only non-backtracking continuation is
  // (1→2); from (1→2) there is none (2 is a leaf).
  const Graph graph = Graph::FromEdges(3, {{0, 1}, {1, 2}}).value();
  const DirectedEdgeSpace edges(graph);
  const SparseMatrix b = BuildHashimotoMatrix(graph, edges);
  EXPECT_EQ(b.At(edges.StateOf(0, 1), edges.StateOf(1, 2)), 1.0);
  EXPECT_EQ(b.At(edges.StateOf(0, 1), edges.StateOf(1, 0)), 0.0);
  const std::int64_t from_leaf = edges.StateOf(1, 2);
  for (std::int64_t t = 0; t < edges.num_states(); ++t) {
    EXPECT_EQ(b.At(from_leaf, t), 0.0);
  }
}

TEST(HashimotoTest, NnzMatchesDegreeFormula) {
  // nnz(B) = Σ_v d_v (d_v − 1).
  Rng rng(1);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(100, 6.0, 2, 2.0), rng);
  ASSERT_TRUE(planted.ok());
  const Graph& graph = planted.value().graph;
  const DirectedEdgeSpace edges(graph);
  const SparseMatrix b = BuildHashimotoMatrix(graph, edges);
  double expected = 0.0;
  for (double d : graph.degrees()) expected += d * (d - 1.0);
  EXPECT_EQ(static_cast<double>(b.nnz()), expected);
}

class HashimotoSweep : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HashimotoSweep, AgreesWithFactorizedRecurrence) {
  // The augmented-state-space reference must produce exactly the counts of
  // the paper's n×n recurrence (Prop. 4.3).
  const auto [seed, length] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<Edge> raw;
  for (int e = 0; e < 20; ++e) {
    const NodeId u = rng.UniformInt(10);
    const NodeId v = rng.UniformInt(10);
    if (u != v) raw.push_back({u, v});
  }
  const Graph graph = Graph::FromEdges(10, raw).value();
  const SparseMatrix via_hashimoto = NbPathCountsViaHashimoto(graph, length);
  const SparseMatrix via_recurrence =
      NonBacktrackingMatrixPower(graph, length);
  EXPECT_TRUE(AllClose(via_hashimoto.ToDense(), via_recurrence.ToDense(),
                       1e-9))
      << "length " << length;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, HashimotoSweep,
    testing::Combine(testing::Values(7, 8, 9), testing::Values(1, 2, 3, 4)));

TEST(HashimotoTest, StateSpaceBlowupVersusFactorized) {
  // The structural point of Section 2.6: the Hashimoto operator needs
  // O(m·(d−1)) nonzeros before a single path is counted, while the
  // factorized summarization touches only n×k intermediates.
  Rng rng(2);
  auto planted = GeneratePlantedGraph(MakeSkewConfig(500, 12.0, 3, 3.0), rng);
  ASSERT_TRUE(planted.ok());
  const Graph& graph = planted.value().graph;
  const DirectedEdgeSpace edges(graph);
  const SparseMatrix b = BuildHashimotoMatrix(graph, edges);
  const std::int64_t factorized_footprint =
      graph.num_nodes() * 3;  // one n×k buffer
  EXPECT_GT(b.nnz(), 10 * factorized_footprint);
}

}  // namespace
}  // namespace fgr
