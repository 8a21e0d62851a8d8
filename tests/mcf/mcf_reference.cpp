#include "mcf_reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.hpp"

namespace flexnets::flow {

namespace {

struct Adj {
  int to;
  int edge;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

// Dijkstra from src; early exit once dst is settled. Returns parent edges.
bool shortest_path(const std::vector<std::vector<Adj>>& adj,
                   const std::vector<double>& length, int src, int dst,
                   std::vector<int>& parent_edge, std::vector<double>& dist,
                   std::vector<int>& touched) {
  for (int t : touched) {
    dist[t] = kInf;
    parent_edge[t] = -1;
  }
  touched.clear();

  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;  // flexnets-lint: allow(priority-queue) -- frozen pre-optimization baseline, measured against on purpose
  dist[src] = 0.0;
  touched.push_back(src);
  pq.push({0.0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (u == dst) return true;
    if (d > dist[u]) continue;
    for (const Adj& a : adj[u]) {
      const double nd = d + length[a.edge];
      if (nd < dist[a.to]) {
        if (dist[a.to] == kInf) touched.push_back(a.to);
        dist[a.to] = nd;
        parent_edge[a.to] = a.edge;
        pq.push({nd, a.to});
      }
    }
  }
  return dist[dst] < kInf;
}

}  // namespace

McfResult reference_max_concurrent_flow(
    int num_nodes, const std::vector<DirectedEdge>& edges,
    const std::vector<McfCommodity>& commodities, double eps) {
  assert(eps > 0.0 && eps <= 0.5);
  McfResult result;
  if (commodities.empty() || edges.empty()) return result;

  const auto m = edges.size();
  std::vector<std::vector<Adj>> adj(static_cast<std::size_t>(num_nodes));
  for (std::size_t e = 0; e < m; ++e) {
    assert(edges[e].capacity > 0.0);
    adj[edges[e].from].push_back({edges[e].to, static_cast<int>(e)});
  }

  const double delta =
      (1.0 + eps) * std::pow((1.0 + eps) * static_cast<double>(m), -1.0 / eps);
  std::vector<double> length(m);
  double dual = 0.0;
  for (std::size_t e = 0; e < m; ++e) {
    length[e] = delta / edges[e].capacity;
    dual += length[e] * edges[e].capacity;
  }

  std::vector<int> parent_edge(static_cast<std::size_t>(num_nodes), -1);
  std::vector<double> dist(static_cast<std::size_t>(num_nodes), kInf);
  std::vector<int> touched;
  touched.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) touched.push_back(i);

  int completed_phases = 0;
  const int max_phases = static_cast<int>(
      std::ceil(2.0 / (eps * eps) * std::log(static_cast<double>(m) / (1 - eps))) *
      40) + 50;

  struct CachedPath {
    std::vector<int> edges;
    double length_at_compute = -1.0;  // < 0 -> invalid
  };
  std::vector<CachedPath> cache(commodities.size());

  auto path_length = [&](const std::vector<int>& p) {
    double s = 0.0;
    for (int e : p) s += length[e];
    return s;
  };

  while (dual < 1.0 && completed_phases < max_phases) {
    for (std::size_t ci = 0; ci < commodities.size(); ++ci) {
      const auto& cmd = commodities[ci];
      CachedPath& cp = cache[ci];
      double remaining = cmd.demand;
      while (remaining > 0.0 && dual < 1.0) {
        if (cp.length_at_compute < 0.0 ||
            path_length(cp.edges) > (1.0 + eps) * cp.length_at_compute) {
          ++result.dijkstra_calls;
          const bool found = shortest_path(adj, length, cmd.src, cmd.dst,
                                           parent_edge, dist, touched);
          FLEXNETS_CHECK(found, "MCF commodity ", ci, " destination ",
                         cmd.dst, " unreachable from ", cmd.src);
          cp.edges.clear();
          for (int v = cmd.dst; v != cmd.src;) {
            const int e = parent_edge[v];
            cp.edges.push_back(e);
            v = edges[e].from;
          }
          cp.length_at_compute = path_length(cp.edges);
        }
        double bottleneck = kInf;
        for (int e : cp.edges) {
          bottleneck = std::min(bottleneck, edges[e].capacity);
        }
        const double f = std::min(remaining, bottleneck);
        for (int e : cp.edges) {
          const double grow = length[e] * eps * f / edges[e].capacity;
          length[e] += grow;
          dual += grow * edges[e].capacity;
        }
        remaining -= f;
      }
      if (dual >= 1.0) break;
    }
    if (dual < 1.0) ++completed_phases;
  }

  result.phases = completed_phases;
  const double scale = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
  result.lambda = static_cast<double>(completed_phases) / scale;
  return result;
}

}  // namespace flexnets::flow
