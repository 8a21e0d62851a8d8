#include <gtest/gtest.h>

#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "graph/algorithms.hpp"
#include "topo/failures.hpp"
#include "topo/fat_tree.hpp"
#include "topo/xpander.hpp"

namespace flexnets::topo {
namespace {

// Five switches in a path, one server each.
Topology path_topology() {
  return Topology("path", graph::Graph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
                  std::vector<int>(5, 1));
}

TEST(Failures, RemovesRequestedFractionAndStaysConnected) {
  const auto x = xpander(5, 9, 3, 1);
  const auto degraded = with_failed_links(x.topo, 0.2, 7);
  EXPECT_EQ(degraded.num_network_links(),
            x.topo.num_network_links() -
                static_cast<int>(0.2 * x.topo.num_network_links()));
  EXPECT_TRUE(graph::is_connected(degraded.g));
  EXPECT_EQ(degraded.servers_per_switch(), x.topo.servers_per_switch());
  EXPECT_NE(degraded.name.find("failures"), std::string::npos);
}

TEST(Failures, ZeroFractionIsIdentity) {
  const auto ft = fat_tree(4);
  const auto same = with_failed_links(ft.topo, 0.0, 1);
  EXPECT_EQ(same.num_network_links(), ft.topo.num_network_links());
}

TEST(Failures, DeterministicInSeed) {
  const auto x = xpander(4, 6, 2, 1);
  const auto a = with_failed_links(x.topo, 0.15, 42);
  const auto b = with_failed_links(x.topo, 0.15, 42);
  ASSERT_EQ(a.g.num_edges(), b.g.num_edges());
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    EXPECT_EQ(a.g.edge(e).a, b.g.edge(e).a);
    EXPECT_EQ(a.g.edge(e).b, b.g.edge(e).b);
  }
  const auto c = with_failed_links(x.topo, 0.15, 43);
  bool differs = a.g.num_edges() != c.g.num_edges();
  for (graph::EdgeId e = 0; !differs && e < a.g.num_edges(); ++e) {
    differs = a.g.edge(e).a != c.g.edge(e).a || a.g.edge(e).b != c.g.edge(e).b;
  }
  EXPECT_TRUE(differs);
}

TEST(Failures, KeepsCutEdges) {
  // A path graph: no edge can be removed without disconnecting.
  const Topology t = path_topology();
  const auto degraded = with_failed_links(t, 0.5, 3);
  EXPECT_EQ(degraded.num_network_links(), 4);
  EXPECT_TRUE(graph::is_connected(degraded.g));
}

TEST(Failures, NonPreservingModeRemovesExactCountEvenAcrossCuts) {
  // Same path graph: preserving mode must keep all 4 edges, while the
  // opt-in non-preserving mode removes exactly floor(0.5 * 4) = 2 and is
  // allowed to partition.
  const Topology t = path_topology();
  FailureOptions opt;
  opt.preserve_connectivity = false;
  const auto degraded = with_failed_links(t, 0.5, 3, opt);
  EXPECT_EQ(degraded.num_network_links(), 2);
  EXPECT_FALSE(graph::is_connected(degraded.g));
}

TEST(Failures, OptionsOverloadDefaultsMatchLegacyOverload) {
  const auto x = xpander(4, 6, 2, 1);
  const auto legacy = with_failed_links(x.topo, 0.15, 42);
  const auto with_opt = with_failed_links(x.topo, 0.15, 42, FailureOptions{});
  ASSERT_EQ(legacy.g.num_edges(), with_opt.g.num_edges());
  for (graph::EdgeId e = 0; e < legacy.g.num_edges(); ++e) {
    EXPECT_EQ(legacy.g.edge(e).a, with_opt.g.edge(e).a);
    EXPECT_EQ(legacy.g.edge(e).b, with_opt.g.edge(e).b);
  }
}

TEST(SwitchFailures, SparesTorsAndStaysConnectedByDefault) {
  // fat_tree(4): 8 ToRs + 12 serverless aggregation/core switches. The
  // victims must all come from the serverless stages and the survivors
  // must stay mutually connected.
  const auto ft = fat_tree(4);
  const auto degraded = with_failed_switches(ft.topo, 3, 11);
  EXPECT_EQ(degraded.num_switches(), ft.topo.num_switches());  // ids stable
  EXPECT_EQ(degraded.servers_per_switch(), ft.topo.servers_per_switch());
  EXPECT_LT(degraded.num_network_links(), ft.topo.num_network_links());
  EXPECT_NE(degraded.name.find("switch-failures(3)"), std::string::npos);
  // Dead switches are isolated; everyone with a link is one component.
  const auto comp = graph::connected_components(degraded.g);
  int live_components = 0;
  std::vector<char> seen(static_cast<std::size_t>(comp.count), 0);
  for (graph::NodeId n = 0; n < degraded.num_switches(); ++n) {
    if (degraded.g.degree(n) > 0 && !seen[comp.id[n]]) {
      seen[comp.id[n]] = 1;
      ++live_components;
    }
  }
  EXPECT_EQ(live_components, 1);
}

TEST(SwitchFailures, TorFailureDropsItsServersWhenAllowed) {
  const auto x = xpander(4, 6, 2, 1);
  FailureOptions opt;
  opt.allow_tor_failures = true;
  const auto degraded = with_failed_switches(x.topo, 2, 11, opt);
  EXPECT_EQ(degraded.num_servers(), x.topo.num_servers() - 2 * 2);
  int emptied = 0;
  for (graph::NodeId n = 0; n < degraded.num_switches(); ++n) {
    if (degraded.servers_per_switch()[n] == 0) {
      ++emptied;
      EXPECT_EQ(degraded.g.degree(n), 0);  // all its links died with it
    }
  }
  EXPECT_EQ(emptied, 2);
}

TEST(SwitchFailures, DeterministicInSeed) {
  const auto ft = fat_tree(4);
  const auto a = with_failed_switches(ft.topo, 2, 9);
  const auto b = with_failed_switches(ft.topo, 2, 9);
  ASSERT_EQ(a.g.num_edges(), b.g.num_edges());
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    EXPECT_EQ(a.g.edge(e).a, b.g.edge(e).a);
    EXPECT_EQ(a.g.edge(e).b, b.g.edge(e).b);
  }
}

TEST(Failures, ThroughputDegradesMonotonicallyOnAverage) {
  const auto x = xpander(5, 9, 3, 1);
  const auto active = flow::pick_active_racks(x.topo, 20, 3);
  auto tput_at = [&](double f) {
    const auto d = with_failed_links(x.topo, f, 7);
    return flow::per_server_throughput(
        d, flow::longest_matching_tm(d, active), {0.06});
  };
  const double t0 = tput_at(0.0);
  const double t30 = tput_at(0.3);
  EXPECT_GT(t0, t30);
  EXPECT_GT(t30, 0.1);  // graceful, not catastrophic
}

}  // namespace
}  // namespace flexnets::topo
