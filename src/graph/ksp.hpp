// Yen's k-shortest loopless paths (Yen, Management Science 1971).
//
// Prior work routed expanders with MPTCP over k-shortest paths (paper
// section 6 intro); this provides that baseline, and the KSP routing mode
// built on it (routing/ksp_table.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace flexnets::graph {

// Yen's search over one graph, for many (src, dst) pairs: each node's
// neighbors are sorted once (the deterministic visit order), and the BFS
// scratch is reused from call to call. paths() writes that scratch, so one
// instance serves one thread. The graph is read at construction only.
class KShortestPaths {
 public:
  explicit KShortestPaths(const Graph& g);

  // Up to k loopless paths from src to dst in ascending hop-length order,
  // each as a node sequence starting at src and ending at dst. Fewer than
  // k are returned if the graph does not contain k distinct loopless
  // paths. Ties are broken deterministically. Precondition: src != dst.
  std::vector<std::vector<NodeId>> paths(NodeId src, NodeId dst, int k);

 private:
  // BFS shortest path from src to dst that never enters `banned_nodes`
  // and never takes a first hop src -> v with v in `banned_next`. Returns
  // empty if unreachable.
  std::vector<NodeId> bfs(NodeId src, NodeId dst,
                          std::span<const NodeId> banned_nodes,
                          std::span<const NodeId> banned_next);

  // Node n's neighbors are nbrs_[offsets_[n]] .. nbrs_[offsets_[n + 1] - 1],
  // sorted, with parallel edges merged.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> nbrs_;
  std::vector<std::uint32_t> seen_;   // == stamp_: seen by this BFS
  std::uint32_t stamp_ = 0;
  std::vector<NodeId> parent_;
  std::vector<NodeId> queue_;
};

// One-off form of KShortestPaths::paths.
std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId src,
                                                  NodeId dst, int k);

}  // namespace flexnets::graph
