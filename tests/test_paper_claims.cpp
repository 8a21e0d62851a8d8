// Direct numerical checks of standalone claims the paper makes in prose.
#include <gtest/gtest.h>

#include "cost/cost_model.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "graph/algorithms.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"

namespace flexnets {
namespace {

TEST(PaperClaims, XpanderAndJellyfishPerformIdentically) {
  // Section 5: "We verified that Xpander and Jellyfish achieve identical
  // performance." Same equipment (48 switches, 7 network ports, 6 servers),
  // same hard TMs: mean fluid throughput within a few percent at every
  // active-rack count. One draw of active racks does not test the claim:
  // at m = 10 the single-draw gap (Xpander minus Jellyfish) runs from
  // -0.088 to +0.096 over draws 1-10, while the mean gap is -0.020 (m = 10)
  // and -0.029 (m = 24). So each family is averaged over ten draws (all
  // racks, m = 48, is a single draw).
  const auto xp = topo::xpander(7, 6, 6, /*seed=*/2).topo;  // 48 switches
  const auto jf = topo::jellyfish(48, 7, 6, /*seed=*/5);
  const auto mean_lambda = [](const topo::Topology& t, int m, int draws) {
    const auto cache = flow::build_throughput_cache(t);
    double sum = 0.0;
    for (int d = 1; d <= draws; ++d) {
      const auto active =
          flow::pick_active_racks(t, m, static_cast<std::uint64_t>(d));
      sum += flow::per_server_throughput(
          t, flow::longest_matching_tm(t, active), {0.05}, cache);
    }
    return sum / draws;
  };
  for (const int m : {10, 24, 48}) {
    const int draws = m == 48 ? 1 : 10;
    EXPECT_NEAR(mean_lambda(xp, m, draws), mean_lambda(jf, m, draws), 0.04)
        << "m=" << m;
  }
}

TEST(PaperClaims, ExpanderAdvantageIsSeedRobust) {
  // The headline fluid comparison (expander beats equal-cost oversubscribed
  // fat-tree on skewed TMs) must not hinge on one random wiring or one
  // random active set.
  const auto ft = topo::fat_tree_stripped(8, 4);
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    const auto jf = topo::jellyfish(32, 8, 4, seed);
    const auto ft_active = flow::pick_active_racks(ft.topo, 16, seed);
    const auto jf_active = flow::pick_active_racks(jf, 16, seed);
    const double ft_tput = flow::per_server_throughput(
        ft.topo, flow::longest_matching_tm(ft.topo, ft_active), {0.06});
    const double jf_tput = flow::per_server_throughput(
        jf, flow::longest_matching_tm(jf, jf_active), {0.06});
    EXPECT_GT(jf_tput, ft_tput * 1.2) << "seed " << seed;
  }
}

TEST(PaperClaims, XpanderShorterPathsThanFatTree) {
  // Section 6.5's explanation of Fig 12: Xpander has shorter paths than
  // the fat-tree, hence lower RTT-bound FCT for tiny flows. Mean shortest
  // switch-path distance must be strictly smaller at comparable scale.
  const auto ft = topo::fat_tree(8);
  const auto xp = topo::xpander(5, 9, 3, 1).topo;
  EXPECT_LT(graph::mean_distance(xp.g), graph::mean_distance(ft.topo.g));
}

TEST(PaperClaims, VlbUsesTwiceTheCapacityPerByte) {
  // Section 6.3: "VLB uses 2x the capacity per byte compared to ECMP."
  // Measured as mean path length (in network links) of VLB's two legs vs
  // the direct shortest path, averaged over pairs: the ratio should be
  // close to 2 on a low-diameter expander.
  const auto xp = topo::xpander(7, 6, 6, 1).topo;
  const auto dist = graph::all_pairs_distances(xp.g);
  double direct = 0.0;
  double vlb = 0.0;
  int pairs = 0;
  const int n = xp.num_switches();
  for (int s = 0; s < n; s += 3) {
    for (int d = 0; d < n; d += 3) {
      if (s == d) continue;
      direct += dist[s][d];
      // Average over all vias (the oblivious expectation).
      double sum = 0.0;
      int vias = 0;
      for (int v = 0; v < n; ++v) {
        if (v == s || v == d) continue;
        sum += dist[s][v] + dist[v][d];
        ++vias;
      }
      vlb += sum / vias;
      ++pairs;
    }
  }
  const double ratio = vlb / direct;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
}

TEST(PaperClaims, DynamicNetworkBuysFewerPorts) {
  // Section 4: "a dynamic network can only buy at most 0.67x the network
  // ports used by an equal-cost static network" at delta = 1.5.
  const int static_ports = 3000;
  const int flexible = cost::equal_cost_flexible_ports(static_ports, 1.5);
  EXPECT_EQ(flexible, 2000);
  EXPECT_NEAR(static_cast<double>(flexible) / static_ports, 0.67, 0.01);
}

}  // namespace
}  // namespace flexnets
