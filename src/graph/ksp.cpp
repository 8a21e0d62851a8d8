#include "graph/ksp.hpp"

#include <algorithm>
#include <cassert>
#include <set>

namespace flexnets::graph {

KShortestPaths::KShortestPaths(const Graph& g)
    : seen_(static_cast<std::size_t>(g.num_nodes()), 0),
      parent_(static_cast<std::size_t>(g.num_nodes()), kInvalidNode) {
  offsets_.reserve(static_cast<std::size_t>(g.num_nodes()) + 1);
  offsets_.push_back(0);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto first = nbrs_.insert(nbrs_.end(), g.incident(n).size(), 0);
    std::transform(g.incident(n).begin(), g.incident(n).end(), first,
                   [&](EdgeId e) { return g.edge(e).other(n); });
    std::sort(first, nbrs_.end());
    // A parallel edge repeats a neighbor the BFS has just marked seen.
    nbrs_.erase(std::unique(first, nbrs_.end()), nbrs_.end());
    offsets_.push_back(nbrs_.size());
  }
}

std::vector<NodeId> KShortestPaths::bfs(NodeId src, NodeId dst,
                                        std::span<const NodeId> banned_nodes,
                                        std::span<const NodeId> banned_next) {
  if (++stamp_ == 0) {  // wrapped: clear the marks of 2^32 searches ago
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  // A banned node behaves exactly like one already visited.
  for (const NodeId n : banned_nodes) seen_[n] = stamp_;
  seen_[src] = stamp_;
  queue_.assign(1, src);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const NodeId u = queue_[head];
    if (u == dst) break;
    for (std::size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const NodeId v = nbrs_[i];
      if (seen_[v] == stamp_) continue;
      if (u == src && std::find(banned_next.begin(), banned_next.end(), v) !=
                          banned_next.end()) {
        continue;
      }
      seen_[v] = stamp_;
      parent_[v] = u;
      queue_.push_back(v);
    }
  }
  if (seen_[dst] != stamp_) return {};
  std::vector<NodeId> path;
  for (NodeId v = dst; v != src; v = parent_[v]) path.push_back(v);
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::vector<NodeId>> KShortestPaths::paths(NodeId src,
                                                       NodeId dst, int k) {
  assert(src != dst && k >= 1);
  std::vector<std::vector<NodeId>> result;
  auto first = bfs(src, dst, {}, {});
  if (first.empty()) return result;
  result.push_back(std::move(first));

  // Candidate set ordered by (length, path) for determinism.
  std::set<std::pair<std::size_t, std::vector<NodeId>>> candidates;
  std::vector<NodeId> banned_next;

  while (static_cast<int>(result.size()) < k) {
    const auto& prev = result.back();
    // Spur from every node of the previous path except dst.
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const auto root_end = prev.begin() + static_cast<std::ptrdiff_t>(i);
      // Ban the next hop of every accepted path sharing the root
      // prev[0..i]; each such hop leaves the spur node prev[i].
      banned_next.clear();
      for (const auto& p : result) {
        if (p.size() > i + 1 && std::equal(prev.begin(), root_end + 1,
                                           p.begin())) {
          banned_next.push_back(p[i + 1]);
        }
      }
      // Ban the root nodes before the spur to keep paths loopless.
      auto spur_path = bfs(prev[i], dst, {prev.data(), i}, banned_next);
      if (spur_path.empty()) continue;
      std::vector<NodeId> candidate(prev.begin(), root_end);
      candidate.insert(candidate.end(), spur_path.begin(), spur_path.end());
      candidates.insert({candidate.size(), std::move(candidate)});
    }
    if (candidates.empty()) break;
    auto it = candidates.begin();
    // Skip candidates already accepted (can occur with equal-length ties).
    while (it != candidates.end() &&
           std::find(result.begin(), result.end(), it->second) !=
               result.end()) {
      it = candidates.erase(it);
    }
    if (it == candidates.end()) break;
    result.push_back(it->second);
    candidates.erase(it);
  }
  return result;
}

std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId src,
                                                  NodeId dst, int k) {
  return KShortestPaths(g).paths(src, dst, k);
}

}  // namespace flexnets::graph
