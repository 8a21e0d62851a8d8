// Undirected multigraph with integer node ids, stored as an immutable
// compressed-sparse-row (CSR) adjacency.
//
// This is the common substrate for topology generators, the fluid-flow
// engine (which expands it into a directed capacitated graph), and the
// packet simulator (which instantiates a link pair per edge). A graph is
// built once from its edge list; edge ids are positions in that list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace flexnets::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

constexpr NodeId kInvalidNode = -1;

struct Edge {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;

  [[nodiscard]] NodeId other(NodeId n) const { return n == a ? b : a; }
};

class Graph {
 public:
  Graph() = default;
  // Builds the adjacency of `edges` on nodes [0, num_nodes) in one
  // counting-sort pass. Parallel edges are allowed; a self-loop or an
  // out-of-range endpoint fails a FLEXNETS_CHECK in every build type.
  explicit Graph(NodeId num_nodes, std::vector<Edge> edges = {});

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges_.size());
  }
  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_[e]; }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  // Edge ids incident to `n`, ascending.
  [[nodiscard]] std::span<const EdgeId> incident(NodeId n) const {
    return {incident_.data() + offsets_[n], incident_.data() + offsets_[n + 1]};
  }
  // The far endpoint of each edge of incident(n), in the same order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId n) const {
    return {neighbors_.data() + offsets_[n],
            neighbors_.data() + offsets_[n + 1]};
  }
  [[nodiscard]] int degree(NodeId n) const {
    return static_cast<int>(offsets_[n + 1] - offsets_[n]);
  }

  // True if an edge {a,b} exists (linear in deg(a)).
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;

 private:
  NodeId num_nodes_ = 0;
  std::vector<Edge> edges_;
  // Node n's slots are [offsets_[n], offsets_[n + 1]) of incident_ and
  // neighbors_. Size num_nodes + 1.
  std::vector<std::size_t> offsets_{0};
  std::vector<EdgeId> incident_;
  std::vector<NodeId> neighbors_;
};

}  // namespace flexnets::graph
