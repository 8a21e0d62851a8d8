#include "fault/detector.hpp"

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::fault {

namespace {

// Do the live switches of `t` stay mutually connected over live edges
// outside `excluded`?
bool live_connected(const topo::Topology& t, const LiveState& live,
                    const std::vector<char>& excluded) {
  const graph::Graph pruned = pruned_graph(t, live, excluded);
  graph::NodeId root = graph::kInvalidNode;
  for (graph::NodeId n = 0; n < t.num_switches(); ++n) {
    if (live.switch_up(n)) {
      root = n;
      break;
    }
  }
  if (root == graph::kInvalidNode) return true;
  const auto dist = graph::bfs_distances(pruned, root);
  for (graph::NodeId n = 0; n < t.num_switches(); ++n) {
    if (live.switch_up(n) && dist[n] == graph::kUnreachable) return false;
  }
  return true;
}

}  // namespace

GrayDetector::GrayDetector(const topo::Topology& t)
    : topo_(&t), detected_(static_cast<std::size_t>(t.g.num_edges()), 0) {}

void GrayDetector::mark_detected(graph::EdgeId e) {
  FLEXNETS_CHECK(topo_ != nullptr, "GrayDetector used before initialization");
  auto& flag = detected_[static_cast<std::size_t>(e)];
  FLEXNETS_CHECK(flag == 0, "GrayDetector: link ", e, " detected twice");
  flag = 1;
  ++detected_count_;
  ++detections_;
}

void GrayDetector::clear(graph::EdgeId e) {
  auto& flag = detected_[static_cast<std::size_t>(e)];
  if (flag != 0) {
    flag = 0;
    --detected_count_;
  }
}

std::vector<char> GrayDetector::excludable(const LiveState& live) const {
  FLEXNETS_CHECK(topo_ != nullptr, "GrayDetector used before initialization");
  std::vector<char> excluded(detected_.size(), 0);
  if (detected_count_ == 0) return excluded;
  for (graph::EdgeId e = 0; e < topo_->g.num_edges(); ++e) {
    if (!detected(e) || !live.edge_live(e)) continue;
    excluded[static_cast<std::size_t>(e)] = 1;
    if (!live_connected(*topo_, live, excluded)) {
      // Routing around this one would partition the survivors; leave it
      // in the tables (its gray losses remain visible in metrics).
      excluded[static_cast<std::size_t>(e)] = 0;
    }
  }
  return excluded;
}

graph::Graph pruned_graph(const topo::Topology& t, const LiveState& live,
                          const std::vector<char>& excluded) {
  std::vector<graph::Edge> pruned;
  for (graph::EdgeId e = 0; e < t.g.num_edges(); ++e) {
    if (!live.edge_live(e)) continue;
    if (excluded[static_cast<std::size_t>(e)]) continue;
    pruned.push_back(t.g.edge(e));
  }
  return graph::Graph(t.g.num_nodes(), std::move(pruned));
}

}  // namespace flexnets::fault
