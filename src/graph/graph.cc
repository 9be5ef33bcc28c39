#include "graph/graph.h"

#include <cmath>
#include <string>
#include <utility>

#include "util/parallel.h"

namespace fgr {

Result<Graph> Graph::FromEdges(NodeId num_nodes,
                               const std::vector<Edge>& edges) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("num_nodes must be non-negative");
  }
  const std::int64_t count = static_cast<std::int64_t>(edges.size());
  // Sharded validation; the lowest-shard error wins so failures are
  // deterministic. The weighted flag is a per-shard OR.
  const int shards = NumShards(count, /*grain=*/1 << 14);
  std::vector<Status> shard_error(
      static_cast<std::size_t>(std::max(shards, 1)));
  std::vector<char> shard_weighted(
      static_cast<std::size_t>(std::max(shards, 1)), 0);
  ParallelForShards(0, count, shards, [&](std::int64_t lo, std::int64_t hi,
                                          int s) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const Edge& e = edges[static_cast<std::size_t>(i)];
      if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) {
        shard_error[static_cast<std::size_t>(s)] =
            Status::OutOfRange("edge endpoint out of range: (" +
                               std::to_string(e.u) + ", " +
                               std::to_string(e.v) + ")");
        return;
      }
      if (e.u == e.v) {
        shard_error[static_cast<std::size_t>(s)] = Status::InvalidArgument(
            "self-loop at node " + std::to_string(e.u));
        return;
      }
      if (!(e.weight > 0.0) || !std::isfinite(e.weight)) {
        shard_error[static_cast<std::size_t>(s)] = Status::InvalidArgument(
            "edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
            ") has non-positive weight");
        return;
      }
      if (e.weight != 1.0) shard_weighted[static_cast<std::size_t>(s)] = 1;
    }
  });
  bool weighted = false;
  for (std::size_t s = 0; s < shard_error.size(); ++s) {
    if (!shard_error[s].ok()) return shard_error[s];
    weighted = weighted || shard_weighted[s] != 0;
  }

  std::vector<Triplet> triplets(static_cast<std::size_t>(count) * 2);
  ParallelFor(
      0, count,
      [&](std::int64_t i) {
        const Edge& e = edges[static_cast<std::size_t>(i)];
        triplets[static_cast<std::size_t>(2 * i)] = {e.u, e.v, e.weight};
        triplets[static_cast<std::size_t>(2 * i) + 1] = {e.v, e.u, e.weight};
      },
      /*grain=*/1 << 14);
  SparseMatrix adjacency =
      SparseMatrix::FromTriplets(num_nodes, num_nodes, std::move(triplets));
  // Unweighted graphs collapse duplicate edges (FromTriplets summed them)
  // back to weight 1 in place; weighted graphs keep the summed weights.
  if (!weighted) adjacency.SetAllValues(1.0);
  return FromAdjacency(std::move(adjacency));
}

Status Graph::ValidateAdjacency(const CsrPanelView& adjacency) {
  if (adjacency.rows() != adjacency.cols()) {
    return Status::InvalidArgument("adjacency matrix must be square");
  }
  const CsrPanelView::Symmetry symmetry = adjacency.CheckSymmetry();
  if (!symmetry.symmetric) {
    return Status::InvalidArgument("adjacency matrix is not symmetric");
  }
  if (!symmetry.zero_diagonal) {
    return Status::InvalidArgument(
        "adjacency matrix must have a zero diagonal (no self-loops)");
  }
  return Status::Ok();
}

Result<Graph> Graph::FromAdjacency(SparseMatrix adjacency) {
  FGR_RETURN_IF_ERROR(ValidateAdjacency(adjacency.View()));
  Graph graph;
  graph.num_edges_ = adjacency.nnz() / 2;
  graph.degrees_ = adjacency.RowSums();
  graph.adjacency_ = std::move(adjacency);
  return graph;
}

std::vector<NodeId> Graph::Neighbors(NodeId u) const {
  FGR_CHECK(u >= 0 && u < num_nodes());
  const auto& row_ptr = adjacency_.row_ptr();
  const auto& col_idx = adjacency_.col_idx();
  std::vector<NodeId> result;
  result.reserve(static_cast<std::size_t>(
      row_ptr[static_cast<std::size_t>(u) + 1] -
      row_ptr[static_cast<std::size_t>(u)]));
  for (auto p = row_ptr[static_cast<std::size_t>(u)];
       p < row_ptr[static_cast<std::size_t>(u) + 1]; ++p) {
    result.push_back(col_idx[static_cast<std::size_t>(p)]);
  }
  return result;
}

std::vector<Edge> Graph::UndirectedEdges() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges_));
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (auto p = adjacency_.row_ptr()[static_cast<std::size_t>(u)];
         p < adjacency_.row_ptr()[static_cast<std::size_t>(u) + 1]; ++p) {
      const NodeId v = adjacency_.col_idx()[static_cast<std::size_t>(p)];
      if (u < v) {
        edges.push_back(
            {u, v, adjacency_.values()[static_cast<std::size_t>(p)]});
      }
    }
  }
  return edges;
}

bool Graph::IsUnweighted() const {
  for (double value : adjacency_.values()) {
    if (value != 1.0) return false;
  }
  return true;
}

}  // namespace fgr
