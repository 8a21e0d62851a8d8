#include "topo/csr/csr_algorithms.hpp"

#include "common/check.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::topo {

CsrBfsTree csr_bfs_tree(const Topology& t, NodeId root) {
  const auto n = static_cast<std::size_t>(t.num_switches());
  FLEXNETS_CHECK(root >= 0 && static_cast<std::size_t>(root) < n,
                 "BFS root out of range");
  CsrBfsTree tree;
  tree.root = root;
  tree.parent.assign(n, graph::kInvalidNode);
  tree.parent_edge.assign(n, -1);
  tree.depth.assign(n, graph::kUnreachable);
  tree.order.reserve(n);
  tree.depth[static_cast<std::size_t>(root)] = 0;
  tree.order.push_back(root);
  for (std::size_t head = 0; head < tree.order.size(); ++head) {
    const NodeId u = tree.order[head];
    const int du = tree.depth[static_cast<std::size_t>(u)];
    const auto edges = t.g.incident(u);
    const auto nbrs = t.g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto v = static_cast<std::size_t>(nbrs[i]);
      if (tree.depth[v] == graph::kUnreachable) {
        tree.depth[v] = du + 1;
        tree.parent[v] = u;
        tree.parent_edge[v] = edges[i];
        tree.order.push_back(nbrs[i]);
      }
    }
  }
  return tree;
}

}  // namespace flexnets::topo
