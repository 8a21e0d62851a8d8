// Lazily-computed cache of k-shortest paths between ToR pairs, backing the
// KSP source-routing mode (and the MPTCP-over-KSP baseline the paper's
// section 6 cites as prior work on routing expanders).
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ksp.hpp"

namespace flexnets::routing {

class KspTable {
 public:
  // Reads the graph once, here: the table answers for the graph as it is
  // now (the network builds a new table at each repair).
  KspTable(const graph::Graph& g, int k) : search_(g), k_(k) {}

  // Up to k loopless shortest paths src -> dst (node sequences including
  // both endpoints). Computed on first request, cached thereafter.
  const std::vector<std::vector<graph::NodeId>>& paths(graph::NodeId src,
                                                       graph::NodeId dst);

  [[nodiscard]] int k() const { return k_; }

 private:
  graph::KShortestPaths search_;
  int k_;
  std::map<std::pair<graph::NodeId, graph::NodeId>,
           std::vector<std::vector<graph::NodeId>>>
      cache_;
};

}  // namespace flexnets::routing
