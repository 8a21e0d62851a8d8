#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "graph/spectral.hpp"

namespace flexnets::graph {
namespace {

Graph path_graph(int n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return Graph(n, std::move(edges));
}

Graph cycle_graph(int n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n});
  return Graph(n, std::move(edges));
}

Graph complete_graph(int n) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return Graph(n, std::move(edges));
}

TEST(Graph, BasicAccessors) {
  const Graph g(3, {{0, 1}, {1, 2}});
  const EdgeId e = 0;
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edge(e).other(0), 1);
  EXPECT_EQ(g.edge(e).other(1), 0);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  const auto nb = g.neighbors(1);
  EXPECT_EQ(nb.size(), 2u);
}

TEST(Graph, ParallelEdgesAllowed) {
  const Graph g(2, {{0, 1}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Graph, IncidentListsAscendInEdgeIdWithMatchingNeighbors) {
  // Consumers that walk incident(n) (ECMP, KSP, PDES partitioning, fault
  // repair, BFS) dispatch in edge-id order; neighbors(n) pairs with it.
  const Graph g(4, {{2, 1}, {0, 1}, {3, 1}, {1, 0}, {2, 3}});
  const auto inc = g.incident(1);
  const auto nb = g.neighbors(1);
  EXPECT_EQ(std::vector<EdgeId>(inc.begin(), inc.end()),
            (std::vector<EdgeId>{0, 1, 2, 3}));
  EXPECT_EQ(std::vector<NodeId>(nb.begin(), nb.end()),
            (std::vector<NodeId>{2, 0, 3, 0}));
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (std::size_t i = 0; i < g.incident(n).size(); ++i) {
      EXPECT_EQ(g.edge(g.incident(n)[i]).other(n), g.neighbors(n)[i]);
    }
  }
  EXPECT_TRUE(Graph(5).incident(4).empty());
}

TEST(Graph, ConstructionRejectsSelfLoopsAndOutOfRangeEndpoints) {
  // A check, not an assert: it holds in builds with NDEBUG too.
  CheckPolicyScope policy(CheckPolicy::kThrow);
  EXPECT_THROW(Graph(3, {{1, 1}}), CheckFailure);
  EXPECT_THROW(Graph(3, {{0, 3}}), CheckFailure);
  EXPECT_THROW(Graph(3, {{-1, 2}}), CheckFailure);
  EXPECT_THROW(Graph(-2), CheckFailure);
}

TEST(Algorithms, BfsDistancesOnPath) {
  const auto g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Algorithms, BfsUnreachable) {
  const Graph g(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_FALSE(is_connected(g));
}

TEST(Algorithms, DiameterAndMeanDistance) {
  const auto g = cycle_graph(6);
  EXPECT_EQ(diameter(g), 3);
  // Cycle of 6: distances from any node: 1,2,3,2,1 -> mean 9/5.
  EXPECT_NEAR(mean_distance(g), 9.0 / 5.0, 1e-12);
  EXPECT_TRUE(is_connected(g));
}

TEST(Algorithms, DiameterDisconnected) {
  Graph g(2);
  EXPECT_EQ(diameter(g), -1);
}

TEST(Algorithms, EcmpNextHopsOnGrid) {
  // 2x2 grid: 0-1, 0-2, 1-3, 2-3. From 0 toward 3 there are two next hops.
  const Graph g(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto next = ecmp_next_hops_to(g, 3);
  EXPECT_EQ(next[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(next[1], (std::vector<NodeId>{3}));
  EXPECT_EQ(next[2], (std::vector<NodeId>{3}));
  EXPECT_TRUE(next[3].empty());
}

TEST(Algorithms, EcmpNextHopsAreShortestOnly) {
  // Triangle plus a pendant: 0-1, 1-2, 0-2, 2-3. Toward 3, node 0 must use
  // only 2 (distance 2), not 1 (would be distance 3).
  const Graph g(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto next = ecmp_next_hops_to(g, 3);
  EXPECT_EQ(next[0], (std::vector<NodeId>{2}));
}

TEST(Matching, PairsHighestWeightsFirst) {
  // 4 items; weight(0,3)=10, weight(1,2)=8, everything else 1.
  std::vector<std::vector<double>> w(4, std::vector<double>(4, 1.0));
  w[0][3] = w[3][0] = 10.0;
  w[1][2] = w[2][1] = 8.0;
  const auto m = greedy_max_weight_matching(4, w);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], (std::pair<int, int>{0, 3}));
  EXPECT_EQ(m[1], (std::pair<int, int>{1, 2}));
}

TEST(Matching, OddCountLeavesOneUnmatched) {
  std::vector<std::vector<double>> w(5, std::vector<double>(5, 1.0));
  const auto m = greedy_max_weight_matching(5, w);
  EXPECT_EQ(m.size(), 2u);
}

TEST(Matching, Deterministic) {
  std::vector<std::vector<double>> w(6, std::vector<double>(6, 1.0));
  const auto a = greedy_max_weight_matching(6, w);
  const auto b = greedy_max_weight_matching(6, w);
  EXPECT_EQ(a, b);
}

TEST(MooreBound, ToyExampleFromPaper) {
  // Section 4.1: 9 racks, degree 6 -> mean distance lower bound 1.25, and
  // the static upper bound 6 / (6 * 1.25) = 0.8.
  EXPECT_NEAR(moore_bound_mean_distance(9, 6), 1.25, 1e-12);
}

TEST(MooreBound, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(moore_bound_mean_distance(5, 4), 1.0);
}

TEST(MooreBound, GrowsWithNodes) {
  const double d1 = moore_bound_mean_distance(50, 4);
  const double d2 = moore_bound_mean_distance(500, 4);
  EXPECT_GT(d2, d1);
  EXPECT_GT(d1, 1.0);
}

TEST(Spectral, CompleteGraphGap) {
  // K_n adjacency eigenvalues: n-1 and -1 -> second eigenvalue magnitude 1.
  const auto g = complete_graph(8);
  EXPECT_NEAR(second_eigenvalue(g, 400), 1.0, 0.05);
}

TEST(Spectral, CycleIsPoorExpander) {
  // Cycle second eigenvalue = 2cos(2pi/n) -> close to 2 (degree d = 2).
  const auto g = cycle_graph(64);
  EXPECT_GT(second_eigenvalue(g, 400), 1.9);
}

TEST(Spectral, RamanujanBound) {
  EXPECT_DOUBLE_EQ(ramanujan_bound(5), 4.0);
}

}  // namespace
}  // namespace flexnets::graph
