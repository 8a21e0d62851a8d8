#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/long_hop.hpp"
#include "topo/slim_fly.hpp"
#include "topo/toy.hpp"
#include "topo/xpander.hpp"

namespace flexnets::topo {
namespace {

TEST(FatTree, K4Structure) {
  const auto ft = fat_tree(4);
  EXPECT_EQ(ft.topo.num_switches(), 20);  // 8 edge + 8 agg + 4 core
  EXPECT_EQ(ft.topo.num_servers(), 16);   // k^3/4
  EXPECT_EQ(ft.topo.num_network_links(), 32);
  EXPECT_TRUE(ft.topo.fits_radix(4));
  EXPECT_TRUE(graph::is_connected(ft.topo.g));
}

TEST(FatTree, K16MatchesPaperSection64) {
  // Paper 6.4: k=16 -> 1024 servers, 320 switches with 16 ports.
  const auto ft = fat_tree(16);
  EXPECT_EQ(ft.topo.num_switches(), 320);
  EXPECT_EQ(ft.topo.num_servers(), 1024);
  EXPECT_TRUE(ft.topo.fits_radix(16));
}

TEST(FatTree, AllSwitchesUseFullRadixWhenFull) {
  const auto ft = fat_tree(8);
  for (graph::NodeId s = 0; s < ft.topo.num_switches(); ++s) {
    EXPECT_EQ(ft.topo.g.degree(s) + ft.topo.servers_per_switch[s], 8)
        << "switch " << s;
  }
}

TEST(FatTree, LayoutClassification) {
  const auto ft = fat_tree(4);
  EXPECT_TRUE(ft.layout.is_edge(0));
  EXPECT_TRUE(ft.layout.is_agg(8));
  EXPECT_TRUE(ft.layout.is_core(16));
  EXPECT_EQ(ft.layout.pod_of(0), 0);
  EXPECT_EQ(ft.layout.pod_of(3), 1);
  EXPECT_EQ(ft.layout.pod_of(17), -1);
}

TEST(FatTree, ServersOnlyAtEdge) {
  const auto ft = fat_tree(6);
  for (graph::NodeId s = 0; s < ft.topo.num_switches(); ++s) {
    if (ft.layout.is_edge(s)) {
      EXPECT_EQ(ft.topo.servers_per_switch[s], 3);
    } else {
      EXPECT_EQ(ft.topo.servers_per_switch[s], 0);
    }
  }
}

TEST(FatTree, DiameterIsSix) {
  // Server-to-server worst case is edge-agg-core-agg-edge = 4 switch hops;
  // switch-graph diameter (edge to edge across pods) is 4.
  const auto ft = fat_tree(8);
  EXPECT_EQ(graph::diameter(ft.topo.g), 4);
}

TEST(FatTreeStripped, RemovesCoresEvenly) {
  const auto ft = fat_tree_stripped(4, 2);  // half the cores
  EXPECT_EQ(ft.topo.num_switches(), 18);
  EXPECT_TRUE(graph::is_connected(ft.topo.g));
  // Each remaining core still connects to every pod.
  for (graph::NodeId s = 16; s < 18; ++s) EXPECT_EQ(ft.topo.g.degree(s), 4);
  // Aggregation uplink counts drop: stripes lose uplinks uniformly (2 of 4
  // stripes-slots kept -> each agg has 1 uplink instead of 2).
  for (graph::NodeId s = 8; s < 16; ++s) {
    EXPECT_EQ(ft.topo.g.degree(s), 2 + 1);  // 2 down + 1 up
  }
}

TEST(FatTreeStripped, SeventySevenPercentConfig) {
  // Fig 11's "77%-fat-tree": for k=16, keeping 35 of 64 cores leaves ~77%
  // of the full fat-tree's network ports (the cost model prices network
  // ports; server NICs are identical across designs).
  const auto full = fat_tree(16);
  const auto stripped = fat_tree_stripped(16, 35);
  const double ratio = static_cast<double>(stripped.topo.num_network_links()) /
                       static_cast<double>(full.topo.num_network_links());
  EXPECT_NEAR(ratio, 0.77, 0.01);
}

TEST(Jellyfish, RegularAndConnected) {
  const auto t = jellyfish(50, 5, 4, 1);
  EXPECT_EQ(t.num_switches(), 50);
  EXPECT_EQ(t.num_servers(), 200);
  EXPECT_EQ(t.num_network_links(), 50 * 5 / 2);
  for (graph::NodeId s = 0; s < 50; ++s) EXPECT_EQ(t.g.degree(s), 5);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(Jellyfish, NoSelfLoopsOrParallelEdges) {
  const auto t = jellyfish(40, 7, 1, 2);
  std::set<std::pair<int, int>> seen;
  for (const auto& e : t.g.edges()) {
    EXPECT_NE(e.a, e.b);
    const auto key = std::minmax(e.a, e.b);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "duplicate edge " << e.a << "-" << e.b;
  }
}

TEST(Jellyfish, DeterministicInSeed) {
  const auto a = jellyfish(30, 4, 2, 7);
  const auto b = jellyfish(30, 4, 2, 7);
  ASSERT_EQ(a.g.num_edges(), b.g.num_edges());
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    EXPECT_EQ(a.g.edge(e).a, b.g.edge(e).a);
    EXPECT_EQ(a.g.edge(e).b, b.g.edge(e).b);
  }
}

TEST(Jellyfish, SeedsProduceDifferentWirings) {
  const auto a = jellyfish(30, 4, 2, 7);
  const auto b = jellyfish(30, 4, 2, 8);
  int diff = 0;
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    diff += (a.g.edge(e).a != b.g.edge(e).a || a.g.edge(e).b != b.g.edge(e).b);
  }
  EXPECT_GT(diff, 0);
}

TEST(JellyfishSameEquipment, NonDivisibleServerTotals) {
  // Fig 6(a)'s "50% fat-tree" case: 250 switches of radix 20 carrying the
  // k=20 fat-tree's 2000 servers -> 8 servers and 12 network ports each.
  const auto t = jellyfish_same_equipment(250, 20, 2000, 1);
  EXPECT_EQ(t.num_servers(), 2000);
  for (graph::NodeId s = 0; s < 250; ++s) {
    EXPECT_EQ(t.g.degree(s) + t.servers_per_switch[s], 20);
  }
  EXPECT_TRUE(graph::is_connected(t.g));

  // Fig 6(b)-style: 180 switches of radix 12 with 864 servers (4.8 each):
  // mixed 4/5 server counts, radix always fully used.
  const auto u = jellyfish_same_equipment(180, 12, 864, 2);
  EXPECT_EQ(u.num_servers(), 864);
  int four = 0;
  int five = 0;
  for (graph::NodeId s = 0; s < 180; ++s) {
    EXPECT_EQ(u.g.degree(s) + u.servers_per_switch[s], 12);
    four += (u.servers_per_switch[s] == 4);
    five += (u.servers_per_switch[s] == 5);
  }
  EXPECT_EQ(four + five, 180);
  EXPECT_EQ(five, 864 - 4 * 180);
  EXPECT_TRUE(graph::is_connected(u.g));
}

TEST(Xpander, LiftStructure) {
  const auto x = xpander(5, 8, 3, 1);
  EXPECT_EQ(x.num_meta_nodes(), 6);
  EXPECT_EQ(x.topo.num_switches(), 48);
  for (graph::NodeId s = 0; s < 48; ++s) EXPECT_EQ(x.topo.g.degree(s), 5);
  EXPECT_TRUE(graph::is_connected(x.topo.g));
  // No links within a meta-node; exactly one link to each other meta-node.
  for (const auto& e : x.topo.g.edges()) {
    EXPECT_NE(x.meta_node_of(e.a), x.meta_node_of(e.b));
  }
}

TEST(Xpander, PaperSection64Config) {
  // 216 switches with 16 ports: 5 servers + 11 network ports each ->
  // 12 meta-nodes of 18 switches, 1080 servers (33% cheaper than the
  // k=16 fat-tree while hosting more servers).
  const auto x = xpander(11, 18, 5, 1);
  EXPECT_EQ(x.topo.num_switches(), 216);
  EXPECT_EQ(x.topo.num_servers(), 1080);
  EXPECT_TRUE(x.topo.fits_radix(16));
  EXPECT_TRUE(graph::is_connected(x.topo.g));
}

TEST(Xpander, Fig3Config) {
  // Fig 3: 486 24-port switches, 3402 servers, 18 meta-nodes of 27.
  const auto x = xpander(17, 27, 7, 1);
  EXPECT_EQ(x.topo.num_switches(), 486);
  EXPECT_EQ(x.topo.num_servers(), 3402);
  EXPECT_TRUE(x.topo.fits_radix(24));
}

TEST(Xpander, ForFallsBackToRandomRegular) {
  // 128 switches, degree 16: 17 does not divide 128.
  const auto t = xpander_for(128, 16, 8, 1);
  EXPECT_EQ(t.num_switches(), 128);
  for (graph::NodeId s = 0; s < 128; ++s) EXPECT_EQ(t.g.degree(s), 16);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(SlimFly, Q5Structure) {
  const auto sf = slim_fly(5, 4);
  EXPECT_EQ(sf.topo.num_switches(), 50);
  EXPECT_EQ(sf.network_degree(), 7);
  for (graph::NodeId s = 0; s < 50; ++s) EXPECT_EQ(sf.topo.g.degree(s), 7);
  EXPECT_TRUE(graph::is_connected(sf.topo.g));
  EXPECT_EQ(graph::diameter(sf.topo.g), 2);  // MMS graphs have diameter 2
}

TEST(SlimFly, Q13Structure) {
  const auto sf = slim_fly(13, 8);
  EXPECT_EQ(sf.topo.num_switches(), 338);
  EXPECT_EQ(sf.network_degree(), 19);
  for (graph::NodeId s = 0; s < 338; ++s) EXPECT_EQ(sf.topo.g.degree(s), 19);
  EXPECT_EQ(graph::diameter(sf.topo.g), 2);
}

TEST(SlimFly, Q17MatchesPaperFig5a) {
  // Fig 5(a): 578 ToRs, 25 network ports, 24 server ports.
  const auto sf = slim_fly(17, 24);
  EXPECT_EQ(sf.topo.num_switches(), 578);
  EXPECT_EQ(sf.network_degree(), 25);
  for (graph::NodeId s = 0; s < 578; ++s) EXPECT_EQ(sf.topo.g.degree(s), 25);
  EXPECT_EQ(graph::diameter(sf.topo.g), 2);
}

TEST(SlimFly, PrimitiveRoot) {
  EXPECT_EQ(primitive_root(5), 2);
  EXPECT_EQ(primitive_root(13), 2);
  EXPECT_EQ(primitive_root(17), 3);
}

TEST(SlimFly, IsPrime) {
  EXPECT_TRUE(is_prime(17));
  EXPECT_FALSE(is_prime(15));
  EXPECT_FALSE(is_prime(1));
}

TEST(LongHop, PaperFig5bConfig) {
  // 512 ToRs, network degree 10 (dim 9 + 1 long hop), 8 servers each.
  const auto t = long_hop(9, 1, 8);
  EXPECT_EQ(t.num_switches(), 512);
  EXPECT_EQ(t.num_servers(), 4096);
  for (graph::NodeId s = 0; s < 512; ++s) EXPECT_EQ(t.g.degree(s), 10);
  EXPECT_TRUE(graph::is_connected(t.g));
}

TEST(LongHop, LongHopsShrinkDiameter) {
  const auto cube = long_hop(7, 0, 1);   // plain hypercube
  const auto lh = long_hop(7, 1, 1);     // + all-ones generator
  EXPECT_EQ(graph::diameter(cube.g), 7);
  EXPECT_EQ(graph::diameter(lh.g), 4);  // antipodal pairs now 1 hop apart
}

TEST(Toy, Section41Structure) {
  const auto toy = toy_section41();
  EXPECT_EQ(toy.topo.num_switches(), 54);
  EXPECT_EQ(toy.active_tors.size(), 9u);
  EXPECT_EQ(toy.topo.num_servers(), 54);  // 9 active ToRs * 6 servers
  EXPECT_TRUE(graph::is_connected(toy.topo.g));
  // Every switch has <= 12 ports; active ToRs have exactly 6 network ports
  // to 6 distinct fat-tree edge switches.
  EXPECT_TRUE(toy.topo.fits_radix(12));
  for (const auto tor : toy.active_tors) {
    EXPECT_EQ(toy.topo.g.degree(tor), 6);
    std::set<graph::NodeId> nbrs;
    for (const auto n : toy.topo.g.neighbors(tor)) nbrs.insert(n);
    EXPECT_EQ(nbrs.size(), 6u);
  }
}

TEST(Topology, ServerMapping) {
  Topology t;
  t.g = graph::Graph(3);
  t.servers_per_switch = {2, 0, 3};
  EXPECT_EQ(t.num_servers(), 5);
  EXPECT_EQ(t.switch_of_server(0), 0);
  EXPECT_EQ(t.switch_of_server(1), 0);
  EXPECT_EQ(t.switch_of_server(2), 2);
  EXPECT_EQ(t.switch_of_server(4), 2);
  EXPECT_EQ(t.first_server_of_switch(2), 2);
  EXPECT_EQ(t.tors(), (std::vector<graph::NodeId>{0, 2}));
}

// ---------------------------------------------------------------------------
// Property sweeps: every topology family must produce connected graphs with
// the advertised switch counts and healthy expansion (for the expanders).

struct ExpanderCase {
  const char* label;
  int n;
  int degree;
  std::uint64_t seed;
};

// Without this, gtest prints a case as its raw bytes, `label` as a pointer
// that moves from run to run, and CTest's test discovery appends that
// printout to each test's name.
void PrintTo(const ExpanderCase& c, std::ostream* os) {
  *os << c.label << " n=" << c.n << " d=" << c.degree << " seed=" << c.seed;
}

class ExpanderProperties : public ::testing::TestWithParam<ExpanderCase> {};

TEST_P(ExpanderProperties, ConnectedRegularAndGoodExpansion) {
  const auto& p = GetParam();
  Topology t = std::string(p.label) == "jellyfish"
                   ? jellyfish(p.n, p.degree, 1, p.seed)
                   : xpander_for(p.n, p.degree, 1, p.seed);
  ASSERT_EQ(t.num_switches(), p.n);
  for (graph::NodeId s = 0; s < p.n; ++s) ASSERT_EQ(t.g.degree(s), p.degree);
  ASSERT_TRUE(graph::is_connected(t.g));
  // Near-Ramanujan expansion: second eigenvalue within 1.35x of 2*sqrt(d-1).
  const double l2 = graph::second_eigenvalue(t.g, 300, 99);
  EXPECT_LT(l2, 1.35 * graph::ramanujan_bound(p.degree))
      << p.label << " n=" << p.n << " d=" << p.degree;
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExpanderProperties,
    ::testing::Values(ExpanderCase{"jellyfish", 64, 6, 1},
                      ExpanderCase{"jellyfish", 128, 10, 2},
                      ExpanderCase{"jellyfish", 216, 11, 3},
                      ExpanderCase{"jellyfish", 100, 5, 4},
                      ExpanderCase{"xpander", 48, 5, 1},
                      ExpanderCase{"xpander", 216, 11, 2},
                      ExpanderCase{"xpander", 96, 7, 3},
                      ExpanderCase{"xpander", 128, 16, 4}),
    [](const auto& info) {
      return std::string(info.param.label) + "_n" +
             std::to_string(info.param.n) + "_d" +
             std::to_string(info.param.degree) + "_s" +
             std::to_string(info.param.seed);
    });

struct FatTreeCase {
  int k;
};

class FatTreeProperties : public ::testing::TestWithParam<FatTreeCase> {};

TEST_P(FatTreeProperties, CountsAndConnectivity) {
  const int k = GetParam().k;
  const auto ft = fat_tree(k);
  EXPECT_EQ(ft.topo.num_switches(), 5 * k * k / 4);
  EXPECT_EQ(ft.topo.num_servers(), k * k * k / 4);
  EXPECT_EQ(ft.topo.num_network_links(), k * k * k / 2);
  EXPECT_TRUE(ft.topo.fits_radix(k));
  EXPECT_TRUE(graph::is_connected(ft.topo.g));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FatTreeProperties,
                         ::testing::Values(FatTreeCase{4}, FatTreeCase{6},
                                           FatTreeCase{8}, FatTreeCase{12},
                                           FatTreeCase{16}),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param.k);
                         });

}  // namespace
}  // namespace flexnets::topo
