// Graph algorithms the hyperscale bracket (flow/bracket.cpp) runs on a
// topology: O(V + E) over the graph's flat adjacency, with no per-node
// containers, so a 100k-switch topology is traversed in a few flat arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/spectral.hpp"
#include "topo/topology.hpp"

namespace flexnets::topo {

// A rooted BFS tree over t.g. parent is kInvalidNode and parent_edge -1 at
// the root and at unreached nodes; depth is graph::kUnreachable where
// unreached. `order` lists reached nodes in dequeue order (root first), so
// a reverse scan visits children before parents: subtree aggregation is
// one backward pass, no recursion.
struct CsrBfsTree {
  NodeId root = 0;
  std::vector<NodeId> parent;
  std::vector<graph::EdgeId> parent_edge;  // the link parent(v) -- v
  std::vector<int> depth;
  std::vector<NodeId> order;
};
CsrBfsTree csr_bfs_tree(const Topology& t, NodeId root);

// graph::second_eigenvector on t.g; perfbench/ times it by this name.
inline graph::SecondEigen csr_second_eigenvector(const Topology& t, int iters,
                                                 std::uint64_t seed) {
  return graph::second_eigenvector(t.g, iters, seed);
}

}  // namespace flexnets::topo
