// Graph algorithms shared by topology analysis, traffic-matrix generation,
// routing-table construction, and the fluid-flow engine.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace flexnets::graph {

constexpr int kUnreachable = -1;

// BFS hop distances from `src` (kUnreachable where disconnected).
std::vector<int> bfs_distances(const Graph& g, NodeId src);
// The same into `dist`, with `queue` as scratch: callers that run one BFS
// per destination reuse both and allocate nothing after the first.
void bfs_distances(const Graph& g, NodeId src, std::vector<int>& dist,
                   std::vector<NodeId>& queue);

// True if the nodes not flagged in `dead_node` stay mutually connected
// once the edges flagged in `dead_edge` and every edge of a dead node are
// removed (dead nodes themselves need not be reached). Indexed by node
// and edge id; BFSes `g` itself, skipping the dead parts.
bool survivors_connected(const Graph& g, const std::vector<char>& dead_edge,
                         const std::vector<char>& dead_node);

// Hop distances between all node pairs; dist[u][v].
std::vector<std::vector<int>> all_pairs_distances(const Graph& g);

bool is_connected(const Graph& g);

// Connected-component labels: id[u] in [0, count), numbered in order of the
// lowest node id they contain. Two nodes share a label iff connected.
struct Components {
  std::vector<int> id;
  int count = 0;
};
Components connected_components(const Graph& g);

// Diameter (max finite pairwise distance); -1 for empty/disconnected graphs.
int diameter(const Graph& g);

// Mean pairwise distance over connected ordered pairs.
double mean_distance(const Graph& g);

// For each node u, the neighbors of u that lie on some shortest path from u
// to `dst` (i.e. dist[v] == dist[u] - 1 measured toward dst). This is the
// ECMP next-hop set. next_hops[dst] = {} by convention.
std::vector<std::vector<NodeId>> ecmp_next_hops_to(const Graph& g, NodeId dst);

// Moore-bound lower bound on the mean shortest-path distance of ANY
// d-regular graph with n nodes (used for the restricted-dynamic-network
// throughput upper bound, paper section 4.1/5).
double moore_bound_mean_distance(int n, int d);

// Subset variant: lower bound on the mean distance from any node to
// `subset_size - 1` OTHER distinct nodes in a graph of maximum degree
// `max_degree` — the ball-packing argument is unchanged (at most d nodes
// at distance 1, d(d-1) at distance 2, ...), only the number of
// destinations packed shrinks to the subset. Used by the all-to-all
// path-length upper bound in flow/bracket.cpp, where the active racks are
// a subset of a (much) larger fabric.
double moore_bound_mean_distance_subset(int subset_size, int max_degree);

}  // namespace flexnets::graph
