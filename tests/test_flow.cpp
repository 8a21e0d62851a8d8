// Fluid-flow engine: TM generators, per-server throughput, analytic models.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "flow/dynamic_models.hpp"
#include "flow/fat_tree_model.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/toy.hpp"
#include "topo/xpander.hpp"

namespace flexnets::flow {
namespace {

TEST(TmGenerators, PickActiveRacksDeterministic) {
  const auto t = topo::jellyfish(20, 4, 2, 1);
  const auto a = pick_active_racks(t, 5, 42);
  const auto b = pick_active_racks(t, 5, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 5u);
  const std::set<topo::NodeId> uniq(a.begin(), a.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(TmGenerators, LongestMatchingPairsEveryRackBothDirections) {
  const auto t = topo::jellyfish(20, 4, 3, 1);
  const auto active = pick_active_racks(t, 10, 1);
  const auto tm = longest_matching_tm(t, active);
  EXPECT_EQ(tm.commodities.size(), 10u);  // 5 pairs x 2 directions
  const auto out = tm.out_demand(t.num_switches());
  for (const auto r : active) EXPECT_DOUBLE_EQ(out[r], 3.0);
}

TEST(TmGenerators, LongestMatchingPrefersDistantRacks) {
  // On a long path graph, matching 0,1,2,3 by distance pairs 0-3 and 1-2.
  const topo::Topology t("path",
                         graph::Graph(4, {{0, 1}, {1, 2}, {2, 3}}),
                         {1, 1, 1, 1});
  const auto tm = longest_matching_tm(t, {0, 1, 2, 3});
  // First commodity must be the 0<->3 pairing (distance 3).
  EXPECT_EQ(tm.commodities[0].src_tor, 0);
  EXPECT_EQ(tm.commodities[0].dst_tor, 3);
}

TEST(TmGenerators, PermutationIsDerangement) {
  const auto t = topo::jellyfish(30, 4, 2, 1);
  const auto active = pick_active_racks(t, 12, 3);
  const auto tm = random_permutation_tm(t, active, 9);
  EXPECT_EQ(tm.commodities.size(), 12u);
  std::set<topo::NodeId> sources;
  std::set<topo::NodeId> dests;
  for (const auto& c : tm.commodities) {
    EXPECT_NE(c.src_tor, c.dst_tor);
    sources.insert(c.src_tor);
    dests.insert(c.dst_tor);
  }
  EXPECT_EQ(sources.size(), 12u);
  EXPECT_EQ(dests.size(), 12u);
}

TEST(TmGenerators, AllToAllDemandsSumToRackCapacity) {
  const auto t = topo::jellyfish(10, 3, 4, 1);
  const auto active = pick_active_racks(t, 5, 1);
  const auto tm = all_to_all_tm(t, active);
  EXPECT_EQ(tm.commodities.size(), 20u);  // 5*4 ordered pairs
  const auto out = tm.out_demand(t.num_switches());
  const auto in = tm.in_demand(t.num_switches());
  for (const auto r : active) {
    EXPECT_NEAR(out[r], 4.0, 1e-9);
    EXPECT_NEAR(in[r], 4.0, 1e-9);
  }
}

TEST(TmGenerators, ManyToOneAndOneToMany) {
  const auto t = topo::jellyfish(10, 3, 2, 1);
  const auto active = pick_active_racks(t, 4, 1);
  const auto m2o = many_to_one_tm(t, active);
  EXPECT_EQ(m2o.commodities.size(), 3u);
  for (const auto& c : m2o.commodities) EXPECT_EQ(c.dst_tor, active[0]);
  const auto o2m = one_to_many_tm(t, active);
  EXPECT_EQ(o2m.commodities.size(), 3u);
  for (const auto& c : o2m.commodities) EXPECT_EQ(c.src_tor, active[0]);
  EXPECT_NEAR(o2m.total_demand(), 2.0, 1e-9);
}

TEST(Throughput, TwoSwitchesDirectLink) {
  // Two ToRs with s servers each joined by one link: permutation demand s
  // through capacity 1 -> per-server throughput 1/s.
  const topo::Topology t("two", graph::Graph(2, {{0, 1}}), {4, 4});
  TrafficMatrix tm;
  tm.commodities = {{0, 1, 4.0}, {1, 0, 4.0}};
  const double tput = per_server_throughput(t, tm, {0.03});
  EXPECT_NEAR(tput, 0.25, 0.03);
}

TEST(Throughput, HoseCapAtLineRate) {
  // Overprovisioned: 2 ToRs, 4 parallel links, 1 server each -> capped 1.0.
  const topo::Topology t(
      "two", graph::Graph(2, std::vector<graph::Edge>(4, {0, 1})), {1, 1});
  TrafficMatrix tm;
  tm.commodities = {{0, 1, 1.0}, {1, 0, 1.0}};
  const double tput = per_server_throughput(t, tm, {0.03});
  EXPECT_NEAR(tput, 1.0, 0.05);
  EXPECT_LE(tput, 1.0);
}

TEST(Throughput, FullFatTreeSupportsWorstCasePermutation) {
  const auto ft = topo::fat_tree(4);
  const auto active = ft.topo.tors();
  const auto tm = longest_matching_tm(ft.topo, active);
  const double tput = per_server_throughput(ft.topo, tm, {0.05});
  EXPECT_GT(tput, 0.85);  // rearrangeably non-blocking -> ~1.0
}

TEST(Throughput, OversubscribedFatTreeDropsProportionally) {
  // Remove half the cores of a k=4 fat-tree: cross-pod permutations get
  // about half the throughput.
  const auto ft = topo::fat_tree_stripped(4, 2);
  const auto active = ft.topo.tors();
  const auto tm = longest_matching_tm(ft.topo, active);
  const double tput = per_server_throughput(ft.topo, tm, {0.05});
  EXPECT_LT(tput, 0.75);
  EXPECT_GT(tput, 0.35);
}

TEST(Throughput, ExpanderBeatsEqualCostFatTreeOnSkewedTm) {
  // The paper's core fluid-flow claim in miniature: with ~50% of racks
  // active, an expander with the same number of servers but ~60% of the
  // fat-tree's switches still delivers clearly higher throughput than the
  // oversubscribed fat-tree.
  const auto ft = topo::fat_tree_stripped(8, 4);  // k=8, 1/4 of cores
  const auto active_ft = pick_active_racks(ft.topo, 16, 7);
  const double ft_tput = per_server_throughput(
      ft.topo, longest_matching_tm(ft.topo, active_ft), {0.05});

  // Jellyfish: 128 servers on 32 switches (4 each), degree 8.
  const auto jf = topo::jellyfish(32, 8, 4, 7);
  const auto active_jf = pick_active_racks(jf, 16, 7);
  const double jf_tput =
      per_server_throughput(jf, longest_matching_tm(jf, active_jf), {0.05});

  EXPECT_GT(jf_tput, ft_tput * 1.3)
      << "jellyfish " << jf_tput << " vs fat-tree " << ft_tput;
}

TEST(Throughput, EmptyTmIsZero) {
  const auto t = topo::jellyfish(10, 3, 1, 1);
  EXPECT_DOUBLE_EQ(per_server_throughput(t, TrafficMatrix{}, {0.1}), 0.0);
}

TEST(Throughput, TpCurve) {
  EXPECT_DOUBLE_EQ(tp_curve(0.5, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(tp_curve(0.5, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(tp_curve(0.5, 0.25), 1.0);  // capped
  EXPECT_DOUBLE_EQ(tp_curve(0.3, 0.6), 0.5);
}

TEST(DynamicModels, UnrestrictedFlatThroughput) {
  // Fig 5(a) setting: 25 network ports, 24 servers, delta=1.5 ->
  // floor(25/1.5)=16 flexible ports -> 16/24 = 0.667.
  EXPECT_NEAR(unrestricted_dynamic_throughput(25, 24, 1.5), 16.0 / 24.0,
              1e-12);
  // With delta=1 it can always deliver full throughput here.
  EXPECT_DOUBLE_EQ(unrestricted_dynamic_throughput(25, 24, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(unrestricted_dynamic_throughput(48, 24, 1.5), 1.0);
}

TEST(DynamicModels, RestrictedReproducesToyExample80Percent) {
  // Section 4.1: 9 active racks, 6 network ports, 6 servers, delta=1 ->
  // upper bound exactly 0.8.
  EXPECT_NEAR(restricted_dynamic_throughput(9, 6, 6, 1.0), 0.8, 1e-12);
}

TEST(DynamicModels, RestrictedImprovesAsFewerRacksActive) {
  const double t_many = restricted_dynamic_throughput(100, 12, 24, 1.5);
  const double t_few = restricted_dynamic_throughput(10, 12, 24, 1.5);
  EXPECT_GT(t_few, t_many);
}

TEST(DynamicModels, RestrictedCompleteGraphRegime) {
  // With r >= m-1 every pair can be directly connected.
  EXPECT_DOUBLE_EQ(restricted_dynamic_throughput(4, 8, 8, 1.0), 1.0);
}

TEST(FatTreeModel, ObservationOneShape) {
  const FatTreeModel m{16, 0.5};
  EXPECT_DOUBLE_EQ(m.beta(), 0.125);
  // At or above beta: stuck at alpha.
  EXPECT_DOUBLE_EQ(m.throughput(1.0), 0.5);
  EXPECT_DOUBLE_EQ(m.throughput(0.125), 0.5);
  // Below beta: rises proportionally, full rate at alpha*beta.
  EXPECT_DOUBLE_EQ(m.throughput(0.0625), 1.0);
  EXPECT_NEAR(m.throughput(0.1), 0.5 * 0.125 / 0.1, 1e-12);
}

TEST(FatTreeModel, FullFatTreeAlwaysFull) {
  const FatTreeModel m{16, 1.0};
  EXPECT_DOUBLE_EQ(m.throughput(1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.throughput(0.01), 1.0);
}

TEST(Toy41, StaticToyTopologyAchievesNearFullThroughput) {
  // The papers' punchline for section 4.1: the static wiring provides full
  // bandwidth between all active servers, beating the restricted-dynamic
  // 80% bound.
  const auto toy = topo::toy_section41();
  const auto tm = longest_matching_tm(toy.topo, toy.active_tors);
  const double tput = per_server_throughput(toy.topo, tm, {0.05});
  EXPECT_GT(tput, 0.85);
  EXPECT_GT(tput, restricted_dynamic_throughput(9, 6, 6, 1.0));
}

// Property: throughput never exceeds 1 and is monotone in the demand scale.
class ThroughputProperties
    : public ::testing::TestWithParam<int> {};  // active rack count

TEST_P(ThroughputProperties, BoundedAndSaneOnJellyfish) {
  const auto t = topo::jellyfish(24, 6, 3, 5);
  const auto active = pick_active_racks(t, GetParam(), 11);
  const auto tm = longest_matching_tm(t, active);
  const double tput = per_server_throughput(t, tm, {0.06});
  EXPECT_GE(tput, 0.0);
  EXPECT_LE(tput, 1.0);
  EXPECT_GT(tput, 0.1);  // a 6-regular expander on 24 nodes is not that bad
}

INSTANTIATE_TEST_SUITE_P(ActiveCounts, ThroughputProperties,
                         ::testing::Values(4, 8, 12, 16, 20, 24),
                         [](const auto& info) {
                           return "m" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace flexnets::flow
