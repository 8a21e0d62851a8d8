#include "graph/algorithms.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace flexnets::graph {

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()), kUnreachable);
  std::vector<NodeId> queue;
  queue.reserve(dist.size());
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<std::vector<int>> all_pairs_distances(const Graph& g) {
  std::vector<std::vector<int>> dist;
  dist.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) dist.push_back(bfs_distances(g, u));
  return dist;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d == kUnreachable; });
}

Components connected_components(const Graph& g) {
  Components c;
  c.id.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (c.id[root] != -1) continue;
    const int label = c.count++;
    std::queue<NodeId> q;
    c.id[root] = label;
    q.push(root);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (const NodeId v : g.neighbors(u)) {
        if (c.id[v] == -1) {
          c.id[v] = label;
          q.push(v);
        }
      }
    }
  }
  return c;
}

int diameter(const Graph& g) {
  if (g.num_nodes() == 0) return -1;
  int diam = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = bfs_distances(g, u);
    for (int d : dist) {
      if (d == kUnreachable) return -1;
      diam = std::max(diam, d);
    }
  }
  return diam;
}

double mean_distance(const Graph& g) {
  double sum = 0.0;
  std::int64_t pairs = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = bfs_distances(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v != u && dist[v] != kUnreachable) {
        sum += dist[v];
        ++pairs;
      }
    }
  }
  return pairs ? sum / static_cast<double>(pairs) : 0.0;
}

std::vector<std::vector<NodeId>> ecmp_next_hops_to(const Graph& g, NodeId dst) {
  const auto dist = bfs_distances(g, dst);
  std::vector<std::vector<NodeId>> next(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (u == dst || dist[u] == kUnreachable) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == dist[u] - 1) next[u].push_back(v);
    }
    // Deterministic order independent of edge insertion order.
    std::sort(next[u].begin(), next[u].end());
    next[u].erase(std::unique(next[u].begin(), next[u].end()), next[u].end());
  }
  return next;
}

double moore_bound_mean_distance(int n, int d) {
  assert(n > 1 && d >= 1);
  // Pack as many nodes as possible close to an arbitrary root: at most d
  // nodes at distance 1, d(d-1) at distance 2, etc. This lower-bounds the
  // distance sum of any d-regular graph on n nodes.
  std::int64_t remaining = n - 1;
  std::int64_t level_cap = d;
  double sum = 0.0;
  for (int dist = 1; remaining > 0; ++dist) {
    const std::int64_t here = std::min<std::int64_t>(remaining, level_cap);
    sum += static_cast<double>(dist) * static_cast<double>(here);
    remaining -= here;
    // Guard against overflow for large d / n.
    if (level_cap < n) level_cap *= (d - 1 > 0 ? d - 1 : 1);
  }
  return sum / static_cast<double>(n - 1);
}

double moore_bound_mean_distance_subset(int subset_size, int max_degree) {
  // Identical packing: the destinations are subset_size - 1 distinct nodes,
  // and no graph of maximum degree d can place more of them close to the
  // root than the full Moore ball allows.
  return moore_bound_mean_distance(subset_size, max_degree);
}

}  // namespace flexnets::graph
