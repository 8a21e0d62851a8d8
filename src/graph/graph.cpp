#include "graph/graph.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace flexnets::graph {

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes), edges_(std::move(edges)) {
  FLEXNETS_CHECK(num_nodes >= 0, "negative node count");
  offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  // Counting sort over the doubled arcs: degrees, prefix sums, then one
  // placement pass in edge-id order, so every incident(n) is ascending.
  for (const Edge& e : edges_) {
    FLEXNETS_CHECK(e.a >= 0 && e.a < num_nodes && e.b >= 0 && e.b < num_nodes,
                   "edge endpoint out of range: ", e.a, " ", e.b);
    FLEXNETS_CHECK(e.a != e.b, "self-loop at node ", e.a);
    ++offsets_[static_cast<std::size_t>(e.a) + 1];
    ++offsets_[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t n = 1; n < offsets_.size(); ++n) {
    offsets_[n] += offsets_[n - 1];
  }
  incident_.resize(offsets_.back());
  neighbors_.resize(offsets_.back());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId id = 0; id < num_edges(); ++id) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    const std::size_t pa = cursor[static_cast<std::size_t>(e.a)]++;
    incident_[pa] = id;
    neighbors_[pa] = e.b;
    const std::size_t pb = cursor[static_cast<std::size_t>(e.b)]++;
    incident_[pb] = id;
    neighbors_[pb] = e.a;
  }
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  const auto nb = neighbors(a);
  return std::find(nb.begin(), nb.end(), b) != nb.end();
}

}  // namespace flexnets::graph
