// Undirected graph backed by a symmetric CSR adjacency matrix.
//
// The paper's setting is an undirected graph G(V, E) with a 0/1 (or weighted)
// symmetric adjacency matrix W, a diagonal degree matrix D, and n×k label
// matrices. Graph owns W and D and provides the derived quantities every
// algorithm needs.

#ifndef FGR_GRAPH_GRAPH_H_
#define FGR_GRAPH_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "matrix/sparse.h"
#include "util/status.h"

namespace fgr {

using NodeId = std::int64_t;

// An undirected edge; the builder symmetrizes it into both (u,v) and (v,u).
// Weight 1 on every edge means the graph is unweighted (a 0/1 adjacency
// matrix); any other positive weight makes it weighted.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;
};

class Graph {
 public:
  Graph() = default;

  // Builds an undirected graph on `num_nodes` nodes. When every edge has
  // weight 1 the graph is unweighted and duplicate edges are collapsed to a
  // single edge; with explicit weights, duplicate edges sum. Self-loops,
  // endpoints outside [0, num_nodes), and non-positive or non-finite
  // weights are rejected.
  static Result<Graph> FromEdges(NodeId num_nodes,
                                 const std::vector<Edge>& edges);

  // Wraps an existing symmetric adjacency matrix (weights allowed).
  // Fails when the matrix is not square/symmetric or has diagonal entries.
  static Result<Graph> FromAdjacency(SparseMatrix adjacency);

  // FromAdjacency's check over a whole-matrix view (square, symmetric, zero
  // diagonal; one CheckSymmetry pass), also run by MappedFgrBin::Open.
  static Status ValidateAdjacency(const CsrPanelView& adjacency);

  NodeId num_nodes() const { return adjacency_.rows(); }

  // Number of undirected edges m (half of nnz for a 0/1 matrix).
  std::int64_t num_edges() const { return num_edges_; }

  double average_degree() const {
    return num_nodes() == 0
               ? 0.0
               : 2.0 * static_cast<double>(num_edges()) /
                     static_cast<double>(num_nodes());
  }

  const SparseMatrix& adjacency() const { return adjacency_; }

  // Weighted degrees (row sums of W).
  const std::vector<double>& degrees() const { return degrees_; }

  // Neighbors of node u (column indices of row u).
  std::vector<NodeId> Neighbors(NodeId u) const;

  // Undirected edge list (each edge reported once, u < v, with its weight).
  std::vector<Edge> UndirectedEdges() const;

  // True when every adjacency entry is exactly 1 (a 0/1 matrix).
  bool IsUnweighted() const;

 private:
  SparseMatrix adjacency_;
  std::vector<double> degrees_;
  std::int64_t num_edges_ = 0;
};

}  // namespace fgr

#endif  // FGR_GRAPH_GRAPH_H_
