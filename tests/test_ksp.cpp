// Yen's k-shortest paths and the KSP routing table.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "graph/ksp.hpp"
#include "routing/ksp_table.hpp"
#include "topo/failures.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"

namespace flexnets::graph {
namespace {

// The oracle: Yen's search as it stood before KShortestPaths, frozen
// verbatim (a sorted neighbor copy per visited node, fresh BFS arrays per
// call, banned hops in a std::set). The optimized search must return the
// same paths in the same order.
namespace frozen {

std::vector<NodeId> restricted_shortest_path(
    const Graph& g, NodeId src, NodeId dst,
    const std::vector<char>& banned_node,
    const std::set<std::pair<NodeId, NodeId>>& banned_hop) {
  std::vector<NodeId> parent(static_cast<std::size_t>(g.num_nodes()),
                             kInvalidNode);
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::queue<NodeId> q;
  seen[src] = 1;
  q.push(src);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    if (u == dst) break;
    // Deterministic neighbor order: sorted copies.
    std::vector<NodeId> nbrs = g.neighbors(u);
    std::sort(nbrs.begin(), nbrs.end());
    for (const NodeId v : nbrs) {
      if (seen[v] || banned_node[v]) continue;
      if (banned_hop.contains({u, v})) continue;
      seen[v] = 1;
      parent[v] = u;
      q.push(v);
    }
  }
  if (!seen[dst]) return {};
  std::vector<NodeId> path;
  for (NodeId v = dst; v != kInvalidNode; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::vector<NodeId>> k_shortest_paths(const Graph& g, NodeId src,
                                                  NodeId dst, int k) {
  std::vector<std::vector<NodeId>> result;
  const std::vector<char> no_ban(static_cast<std::size_t>(g.num_nodes()), 0);
  auto first = restricted_shortest_path(g, src, dst, no_ban, {});
  if (first.empty()) return result;
  result.push_back(std::move(first));

  // Candidate set ordered by (length, path) for determinism.
  std::set<std::pair<std::size_t, std::vector<NodeId>>> candidates;

  while (static_cast<int>(result.size()) < k) {
    const auto& prev = result.back();
    // Spur from every node of the previous path except dst.
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      std::vector<NodeId> root(prev.begin(),
                               prev.begin() + static_cast<std::ptrdiff_t>(i) + 1);

      // Ban the next hop of every accepted path sharing this root.
      std::set<std::pair<NodeId, NodeId>> banned_hop;
      for (const auto& p : result) {
        if (p.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          banned_hop.insert({p[i], p[i + 1]});
        }
      }
      // Ban root nodes (except the spur) to keep paths loopless.
      std::vector<char> banned_node(static_cast<std::size_t>(g.num_nodes()),
                                    0);
      for (std::size_t j = 0; j < i; ++j) banned_node[root[j]] = 1;

      auto spur_path =
          restricted_shortest_path(g, spur, dst, banned_node, banned_hop);
      if (spur_path.empty()) continue;
      root.pop_back();
      root.insert(root.end(), spur_path.begin(), spur_path.end());
      candidates.insert({root.size(), std::move(root)});
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

}  // namespace frozen

Graph diamond() {
  // 0-1-3 and 0-2-3 (two 2-hop paths), plus 0-4-5-3 (one 3-hop path).
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  return g;
}

TEST(Ksp, FindsPathsInAscendingLength) {
  const auto g = diamond();
  const auto paths = k_shortest_paths(g, 0, 3, 3);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].size(), 3u);
  EXPECT_EQ(paths[1].size(), 3u);
  EXPECT_EQ(paths[2].size(), 4u);
  EXPECT_EQ(paths[2], (std::vector<NodeId>{0, 4, 5, 3}));
}

TEST(Ksp, PathsAreLooplessAndDistinct) {
  const auto g = diamond();
  const auto paths = k_shortest_paths(g, 0, 3, 10);
  std::set<std::vector<NodeId>> uniq(paths.begin(), paths.end());
  EXPECT_EQ(uniq.size(), paths.size());
  for (const auto& p : paths) {
    std::set<NodeId> nodes(p.begin(), p.end());
    EXPECT_EQ(nodes.size(), p.size()) << "path has a loop";
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 3);
    // Consecutive nodes are adjacent.
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
    }
  }
}

TEST(Ksp, StopsWhenGraphExhausted) {
  Graph g(2);
  g.add_edge(0, 1);
  const auto paths = k_shortest_paths(g, 0, 1, 5);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<NodeId>{0, 1}));
}

TEST(Ksp, UnreachableReturnsEmpty) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(k_shortest_paths(g, 0, 2, 3).empty());
}

TEST(Ksp, Deterministic) {
  const auto x = topo::xpander(4, 4, 1, 3);
  const auto a = k_shortest_paths(x.topo.g, 0, 17, 6);
  const auto b = k_shortest_paths(x.topo.g, 0, 17, 6);
  EXPECT_EQ(a, b);
}

TEST(Ksp, FatTreeCrossPodPathCount) {
  // k=4 fat-tree: between edge switches in different pods there are 4
  // shortest 4-hop paths (2 aggs x 2 cores per agg).
  const auto ft = topo::fat_tree(4);
  const auto paths = k_shortest_paths(ft.topo.g, 0, 7, 8);
  ASSERT_GE(paths.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(paths[i].size(), 5u);
  // 5th-onward paths must be longer.
  if (paths.size() > 4) {
    EXPECT_GT(paths[4].size(), 5u);
  }
}

TEST(Ksp, ExpanderProvidesDiversePaths) {
  const auto x = topo::xpander(5, 9, 1, 1);  // 54 switches, degree 5
  const auto paths = k_shortest_paths(x.topo.g, 0, 30, 4);
  ASSERT_EQ(paths.size(), 4u);
  // Second hops should differ across at least two paths (path diversity).
  std::set<NodeId> second_nodes;
  for (const auto& p : paths) second_nodes.insert(p[1]);
  EXPECT_GE(second_nodes.size(), 2u);
}

// Path for path against the frozen search, over seeded pairs of each
// graph, with one KShortestPaths reused for every pair and k (as a
// KspTable reuses it). Returns how many pairs had no path at all.
int expect_matches_frozen(const Graph& g, const std::string& name,
                          std::uint64_t seed, int pairs) {
  KShortestPaths search(g);
  Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(g.num_nodes());
  int unreachable = 0;
  for (int i = 0; i < pairs; ++i) {
    const auto src = static_cast<NodeId>(rng.next_u64(n));
    auto dst = static_cast<NodeId>(rng.next_u64(n - 1));
    if (dst >= src) ++dst;
    for (const int k : {1, 4, 8}) {
      const auto want = frozen::k_shortest_paths(g, src, dst, k);
      EXPECT_EQ(search.paths(src, dst, k), want)
          << name << " " << src << " -> " << dst << " k=" << k;
      if (k == 1) unreachable += want.empty() ? 1 : 0;
    }
  }
  return unreachable;
}

TEST(Ksp, MatchesFrozenSearchOnTopologies) {
  const auto x = topo::xpander(5, 9, 1, 1);
  expect_matches_frozen(x.topo.g, "xpander", 1, 150);
  const auto jf = topo::jellyfish(40, 5, 1, 3);
  expect_matches_frozen(jf.g, "jellyfish", 2, 150);
  const auto ft = topo::fat_tree(4);
  expect_matches_frozen(ft.topo.g, "fat-tree", 3, 150);
  EXPECT_EQ(k_shortest_paths(x.topo.g, 0, 30, 4),
            frozen::k_shortest_paths(x.topo.g, 0, 30, 4));
}

TEST(Ksp, MatchesFrozenSearchWithFailedLinks) {
  // A draw that may partition the graph, so some pairs have no path.
  topo::FailureOptions opt;
  opt.preserve_connectivity = false;
  const auto jf = topo::jellyfish(40, 3, 1, 5);
  const auto failed = topo::with_failed_links(jf, 0.3, 9, opt);
  EXPECT_GT(expect_matches_frozen(failed.g, "failed jellyfish", 4, 200), 0);
}

TEST(Ksp, MatchesFrozenSearchOnAMultigraph) {
  // A ring with chords, and parallel copies of about a third of the edges.
  Rng rng(17);
  Graph g(24);
  for (NodeId v = 0; v < 24; ++v) {
    const NodeId chord = static_cast<NodeId>((v + 5 + rng.next_u64(7)) % 24);
    for (const NodeId w : {static_cast<NodeId>((v + 1) % 24), chord}) {
      g.add_edge(v, w);
      if (rng.next_u64(3) == 0) g.add_edge(w, v);
    }
  }
  expect_matches_frozen(g, "multigraph", 5, 150);
}

TEST(KspTable, CachesAndReturnsConsistently) {
  const auto x = topo::xpander(4, 4, 1, 3);
  routing::KspTable table(x.topo.g, 3);
  const auto& a = table.paths(0, 10);
  const auto& b = table.paths(0, 10);
  EXPECT_EQ(&a, &b);  // same cached object
  EXPECT_LE(a.size(), 3u);
  EXPECT_GE(a.size(), 1u);
  EXPECT_EQ(table.k(), 3);
}

}  // namespace
}  // namespace flexnets::graph
