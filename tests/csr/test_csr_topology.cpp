// Topology identity and the algorithms the hyperscale bracket runs on it.
// Every generator family's Topology::digest() (switch count, then each
// edge's endpoints in edge-id order) is pinned, so any change to a
// generator's RNG use, edge order or the graph build shows up here. The
// CsrTwins cases hold the families that once had a separate flat twin to
// the layout that twin was compared against: per-switch adjacency lists
// filled in edge-id order, and servers numbered in switch order.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "flow/tm_view.hpp"
#include "topo/csr/csr_algorithms.hpp"
#include "topo/dragonfly.hpp"
#include "topo/failures.hpp"
#include "topo/fat_tree.hpp"
#include "topo/io.hpp"
#include "topo/jellyfish.hpp"
#include "topo/long_hop.hpp"
#include "topo/slim_fly.hpp"
#include "topo/toy.hpp"
#include "topo/xpander.hpp"

namespace flexnets::topo {
namespace {

struct DigestPin {
  const char* label;
  std::function<Topology()> build;
  std::uint64_t digest;
  int num_servers;
  int num_links;
  const char* name;
};

Topology tors_may_fail() {
  FailureOptions opt;
  opt.allow_tor_failures = true;
  return with_failed_switches(jellyfish(50, 7, 6, 1), 3, 5, opt);
}

const std::vector<DigestPin>& digest_pins() {
  static const std::vector<DigestPin> pins = {
      {"fat-tree k=4", [] { return fat_tree(4).topo; },
       0x62a8ba5c034b0fa3ULL, 16, 32, "fat-tree(k=4)"},
      {"fat-tree k=8", [] { return fat_tree(8).topo; },
       0xcf559dac5ead426aULL, 128, 256, "fat-tree(k=8)"},
      {"stripped fat-tree k=8, 7 cores",
       [] { return fat_tree_stripped(8, 7).topo; }, 0x588a2837606d81abULL,
       128, 184, "fat-tree(k=8,cores=7/16)"},
      {"jellyfish 50x7 seed 1", [] { return jellyfish(50, 7, 6, 1); },
       0x0b63e0b096c88742ULL, 300, 175, "jellyfish(n=50,r=7)"},
      {"jellyfish 50x7 seed 7", [] { return jellyfish(50, 7, 6, 7); },
       0x06350c9d9e16f306ULL, 300, 175, "jellyfish(n=50,r=7)"},
      {"jellyfish 50x7 seed 42", [] { return jellyfish(50, 7, 6, 42); },
       0xbdb5ad68f5a9fc6eULL, 300, 175, "jellyfish(n=50,r=7)"},
      {"same-equipment jellyfish, 150 servers on 40 switches",
       [] { return jellyfish_same_equipment(40, 12, 150, 3); },
       0x4e68ccf070b3bfbaULL, 150, 165, "jellyfish(n=40,radix=12,srv=150)"},
      {"xpander d=5 lift=9", [] { return xpander(5, 9, 6, 1).topo; },
       0x0f341841c0eb3753ULL, 324, 135, "xpander(d=5,lift=9)"},
      {"xpander d=5 lift=9 seed 5", [] { return xpander(5, 9, 6, 5).topo; },
       0x50c408fd7e7a91a6ULL, 324, 135, "xpander(d=5,lift=9)"},
      {"xpander_for 54x5 (lift)", [] { return xpander_for(54, 5, 6, 2); },
       0x64353fcc696a1d58ULL, 324, 135, "xpander(d=5,lift=9)"},
      {"xpander_for 50x5 (random-regular fallback)",
       [] { return xpander_for(50, 5, 6, 2); }, 0xb7f31c1f9b16c881ULL, 300,
       125, "xpander-rrg(n=50,d=5)"},
      {"slim fly q=5", [] { return slim_fly(5, 6).topo; },
       0x4b435b801080c30eULL, 300, 175, "slimfly(q=5)"},
      {"dragonfly a=4 h=2", [] { return dragonfly(4, 2, 3).topo; },
       0x580b0c663b3579a6ULL, 108, 90, "dragonfly(a=4,h=2)"},
      {"long-hop dim=6 extra=1", [] { return long_hop(6, 1, 6); },
       0xfe5f4bca29dd40dbULL, 384, 224, "longhop(dim=6,extra=1)"},
      {"section 4.1 toy", [] { return toy_section41().topo; },
       0xcc0f6c880210c585ULL, 54, 162, "toy-4.1"},
      {"with_failed_links, 10% of jellyfish 50x7",
       [] { return with_failed_links(jellyfish(50, 7, 6, 1), 0.1, 3); },
       0x5b3fb043117fbb5dULL, 300, 158, "jellyfish(n=50,r=7)+failures(10%)"},
      {"with_failed_switches, 4 of fat-tree k=8",
       [] { return with_failed_switches(fat_tree(8).topo, 4, 5); },
       0x5c77a30fa4db528aULL, 128, 225, "fat-tree(k=8)+switch-failures(4)"},
      {"with_failed_switches, ToRs may fail", tors_may_fail,
       0x96c0d6bedd7ca9f9ULL, 282, 155,
       "jellyfish(n=50,r=7)+switch-failures(3)"},
      {"topo/io text round trip of xpander d=3 lift=4",
       [] { return *from_text(to_text(xpander(3, 4, 2, 1).topo)); },
       0xb184701a9be617e7ULL, 32, 24, "xpander(d=3,lift=4)"},
      // The hyperscale build bench_hyperscale and perfbench's bracket run.
      {"jellyfish 100k x16", [] { return jellyfish(100'000, 16, 8, 1); },
       0x62bf8013ccfcb89fULL, 800'000, 800'000, "jellyfish(n=100000,r=16)"},
  };
  return pins;
}

void expect_pin(const DigestPin& pin, const Topology& t) {
  EXPECT_EQ(t.digest(), pin.digest) << pin.label;
  EXPECT_EQ(t.num_servers(), pin.num_servers) << pin.label;
  EXPECT_EQ(t.num_network_links(), pin.num_links) << pin.label;
  EXPECT_EQ(t.name, pin.name) << pin.label;
}

// Builds the pinned row `label` and checks it against its pin.
Topology build_pinned(std::string_view label) {
  for (const auto& pin : digest_pins()) {
    if (label != pin.label) continue;
    Topology t = pin.build();
    expect_pin(pin, t);
    return t;
  }
  ADD_FAILURE() << "no pinned row " << label;
  return {};
}

// The CSR layout of `t` against adjacency lists built the old way: each
// edge appended to both endpoints' lists in edge-id order, and servers
// numbered switch by switch.
void expect_adjacency_list_layout(const Topology& t) {
  const graph::Graph& g = t.g;
  std::vector<std::vector<graph::EdgeId>> lists(
      static_cast<std::size_t>(g.num_nodes()));
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    lists[static_cast<std::size_t>(g.edge(e).a)].push_back(e);
    lists[static_cast<std::size_t>(g.edge(e).b)].push_back(e);
  }
  int first_server = 0;
  for (NodeId sw = 0; sw < g.num_nodes(); ++sw) {
    const auto inc = g.incident(sw);
    const auto nb = g.neighbors(sw);
    ASSERT_EQ(std::vector<graph::EdgeId>(inc.begin(), inc.end()),
              lists[static_cast<std::size_t>(sw)])
        << t.name << " switch " << sw;
    ASSERT_EQ(nb.size(), inc.size()) << t.name << " switch " << sw;
    for (std::size_t i = 0; i < inc.size(); ++i) {
      ASSERT_EQ(nb[i], g.edge(inc[i]).other(sw)) << t.name << " switch " << sw;
    }
    EXPECT_EQ(g.degree(sw), static_cast<int>(inc.size()));
    EXPECT_EQ(t.first_server_of_switch(sw), first_server) << t.name;
    first_server += t.servers_per_switch()[static_cast<std::size_t>(sw)];
  }
  EXPECT_EQ(t.num_servers(), first_server) << t.name;
}

TEST(TopologyDigest, EveryGeneratorMatchesItsPin) {
  for (const auto& pin : digest_pins()) expect_pin(pin, pin.build());
}

TEST(CsrTwins, JellyfishSeeds) {
  for (const char* label : {"jellyfish 50x7 seed 1", "jellyfish 50x7 seed 7",
                            "jellyfish 50x7 seed 42"}) {
    expect_adjacency_list_layout(build_pinned(label));
  }
  // The name perfbench builds its flat topology with is the same generator.
  EXPECT_EQ(jellyfish_csr(50, 7, 6, 42).digest(),
            jellyfish(50, 7, 6, 42).digest());
}

TEST(CsrTwins, JellyfishSameEquipment) {
  expect_adjacency_list_layout(
      build_pinned("same-equipment jellyfish, 150 servers on 40 switches"));
}

TEST(CsrTwins, Xpander) {
  expect_adjacency_list_layout(build_pinned("xpander d=5 lift=9"));
  expect_adjacency_list_layout(build_pinned("xpander d=5 lift=9 seed 5"));
}

TEST(CsrTwins, XpanderFor) {
  // 54 = (5+1)*9: the lift construction. 50 switches: the random-regular
  // fallback.
  expect_adjacency_list_layout(build_pinned("xpander_for 54x5 (lift)"));
  expect_adjacency_list_layout(
      build_pinned("xpander_for 50x5 (random-regular fallback)"));
}

TEST(CsrTwins, FatTree) {
  expect_adjacency_list_layout(build_pinned("fat-tree k=4"));
  expect_adjacency_list_layout(build_pinned("fat-tree k=8"));
}

TEST(CsrTwins, FatTreeStripped) {
  expect_adjacency_list_layout(
      build_pinned("stripped fat-tree k=8, 7 cores"));
}

TEST(CsrTopology, TorsAndServerLookupMatchOracle) {
  // The eager server offsets against a plain scan of the server counts.
  const auto t = jellyfish_same_equipment(30, 10, 77, 9);
  std::vector<NodeId> tors;
  std::vector<NodeId> owner;
  for (NodeId sw = 0; sw < t.num_switches(); ++sw) {
    EXPECT_EQ(t.first_server_of_switch(sw), static_cast<int>(owner.size()));
    const int servers = t.servers_per_switch()[static_cast<std::size_t>(sw)];
    if (servers > 0) tors.push_back(sw);
    owner.insert(owner.end(), static_cast<std::size_t>(servers), sw);
  }
  EXPECT_EQ(t.tors(), tors);
  ASSERT_EQ(t.num_servers(), 77);
  for (int server = 0; server < t.num_servers(); ++server) {
    ASSERT_EQ(t.switch_of_server(server),
              owner[static_cast<std::size_t>(server)])
        << "server " << server;
  }
}

TEST(CsrTopology, SameSeedSameDigestDifferentSeedDifferent) {
  EXPECT_EQ(jellyfish(64, 8, 4, 11).digest(), jellyfish(64, 8, 4, 11).digest());
  EXPECT_NE(jellyfish(64, 8, 4, 11).digest(), jellyfish(64, 8, 4, 12).digest());
}

TEST(CsrAlgorithms, BfsDistancesMatchOracle) {
  // The bracket's BFS trees against the plain BFS: same hop depths.
  const auto t = jellyfish(40, 5, 4, 2);
  for (const NodeId src : {0, 7, 39}) {
    const auto want = graph::bfs_distances(t.g, src);
    const auto got = csr_bfs_tree(t, src).depth;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "src " << src << " node " << i;
    }
  }
}

TEST(CsrAlgorithms, BfsTreeIsConsistent) {
  const auto t = jellyfish(60, 6, 4, 3);
  const auto tree = csr_bfs_tree(t, 5);
  ASSERT_EQ(static_cast<int>(tree.order.size()), t.num_switches());
  EXPECT_EQ(tree.order.front(), 5);
  EXPECT_EQ(tree.parent[5], graph::kInvalidNode);
  const auto dist = graph::bfs_distances(t.g, 5);
  for (NodeId v = 0; v < t.num_switches(); ++v) {
    ASSERT_EQ(tree.depth[v], dist[v]);
    if (v == 5) continue;
    const auto p = tree.parent[v];
    ASSERT_GE(p, 0);
    EXPECT_EQ(tree.depth[v], tree.depth[p] + 1);
    // parent_edge really joins p and v.
    const auto& e = t.g.edge(tree.parent_edge[v]);
    EXPECT_TRUE((e.a == p && e.b == v) || (e.a == v && e.b == p));
  }
}

TEST(CsrAlgorithms, ConnectivityMatchesOracle) {
  EXPECT_TRUE(graph::is_connected(jellyfish(32, 4, 2, 1).g));

  // Two disjoint triangles.
  const Topology split(
      "split",
      graph::Graph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}),
      std::vector<int>(6, 1));
  EXPECT_FALSE(graph::is_connected(split.g));
  const auto tree = csr_bfs_tree(split, 0);
  EXPECT_EQ(tree.order.size(), 3u);
  EXPECT_EQ(tree.depth[4], graph::kUnreachable);
}

TEST(CsrAlgorithms, SpectralEstimateTracksOracle) {
  // One power iteration serves Fig 3's lambda_2, the spectral bound in
  // flow/bounds and the bracket's spectral cut, so its bits are pinned.
  const auto t = jellyfish(64, 8, 4, 4);
  const double pinned = 0x1.4643c353da739p+2;
  EXPECT_EQ(graph::second_eigenvalue(t.g, 200, 1), pinned);
  const auto est = csr_second_eigenvector(t, 200, 1);
  EXPECT_EQ(est.lambda, pinned);
  ASSERT_EQ(est.vec.size(), 64u);
  double sum = 0.0;
  double sq = 0.0;
  for (const double x : est.vec) {
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum, 0.0, 1e-9);  // orthogonal to the all-ones vector
  EXPECT_NEAR(sq, 1.0, 1e-9);   // unit norm
}

}  // namespace
}  // namespace flexnets::topo
