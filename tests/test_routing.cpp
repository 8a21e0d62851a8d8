// ECMP tables, switch forwarding, and source-side route control.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/algorithms.hpp"
#include "routing/routing_table.hpp"
#include "routing/strategy.hpp"
#include "sim/packet.hpp"
#include "topo/fat_tree.hpp"
#include "topo/xpander.hpp"

namespace flexnets::routing {
namespace {

graph::Graph grid4() {
  return graph::Graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(EcmpTable, NextHopsMatchAlgorithm) {
  const auto g = grid4();
  const auto table = EcmpTable::build(g, {3});
  const auto hops = table.next_hops(3, 0);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], 1);
  EXPECT_EQ(hops[1], 2);
  EXPECT_TRUE(table.next_hops(3, 3).empty());
  EXPECT_TRUE(table.has_dst(3));
  EXPECT_FALSE(table.has_dst(0));
}

TEST(EcmpTable, DuplicateDestinationsTolerated) {
  const auto g = grid4();
  const auto table = EcmpTable::build(g, {3, 3, 0});
  EXPECT_TRUE(table.has_dst(3));
  EXPECT_TRUE(table.has_dst(0));
}

TEST(EcmpTable, FatTreeUpDownPaths) {
  // In a fat-tree, an edge switch reaching a different pod must go through
  // all k/2 aggregation switches of its pod (ECMP fan-out).
  const auto ft = topo::fat_tree(4);
  const auto table = EcmpTable::build(ft.topo.g, ft.topo.tors());
  // Edge switch 0 (pod 0) toward edge switch 7 (pod 3).
  const auto hops = table.next_hops(7, 0);
  EXPECT_EQ(hops.size(), 2u);  // both aggs of pod 0
  for (const auto h : hops) EXPECT_TRUE(ft.layout.is_agg(h));
}

TEST(SwitchForwarder, HashIsDeterministicAndOnShortestPath) {
  const auto g = grid4();
  const auto table = EcmpTable::build(g, {3});
  const SwitchForwarder fwd(table, 99);
  sim::Packet p;
  p.flow_id = 5;
  p.flowlet = 0;
  p.dst_tor = 3;
  const auto h1 = fwd.next_hop(0, p);
  const auto h2 = fwd.next_hop(0, p);
  EXPECT_EQ(h1, h2);
  EXPECT_TRUE(h1 == 1 || h1 == 2);
}

TEST(SwitchForwarder, FlowletChangesCanChangePath) {
  const auto g = grid4();
  const auto table = EcmpTable::build(g, {3});
  const SwitchForwarder fwd(table, 99);
  std::set<graph::NodeId> chosen;
  for (std::uint32_t flowlet = 0; flowlet < 32; ++flowlet) {
    sim::Packet p;
    p.flow_id = 5;
    p.flowlet = flowlet;
    p.dst_tor = 3;
    chosen.insert(fwd.next_hop(0, p));
  }
  EXPECT_EQ(chosen.size(), 2u);  // both ECMP paths exercised
}

TEST(SwitchForwarder, HashBalancesFlowsAcrossNextHops) {
  const auto g = grid4();
  const auto table = EcmpTable::build(g, {3});
  const SwitchForwarder fwd(table, 7);
  std::map<graph::NodeId, int> counts;
  for (int flow = 0; flow < 2000; ++flow) {
    sim::Packet p;
    p.flow_id = flow;
    p.dst_tor = 3;
    ++counts[fwd.next_hop(0, p)];
  }
  EXPECT_NEAR(counts[1], 1000, 120);
  EXPECT_NEAR(counts[2], 1000, 120);
}

TEST(SwitchForwarder, DeliversLocallyAtDestination) {
  const auto g = grid4();
  const auto table = EcmpTable::build(g, {3});
  const SwitchForwarder fwd(table, 7);
  sim::Packet p;
  p.dst_tor = 3;
  EXPECT_EQ(fwd.next_hop(3, p), graph::kInvalidNode);
}

TEST(SwitchForwarder, VlbRoutesViaBouncePoint) {
  // Path graph 0-1-2: via = 1 forces packets from 0 to 2 through 1, and the
  // via field is cleared at the bounce switch.
  const graph::Graph g(3, {{0, 1}, {1, 2}});
  const auto table = EcmpTable::build(g, {0, 1, 2});
  const SwitchForwarder fwd(table, 7);
  sim::Packet p;
  p.dst_tor = 2;
  p.via_tor = 1;
  EXPECT_EQ(fwd.next_hop(0, p), 1);
  EXPECT_EQ(p.via_tor, 1);  // still en route to the via
  EXPECT_EQ(fwd.next_hop(1, p), 2);
  EXPECT_EQ(p.via_tor, graph::kInvalidNode);  // cleared at the bounce
}

class SourceRouterTest : public ::testing::Test {
 protected:
  static SourceRouteConfig config(RoutingMode m) {
    SourceRouteConfig c;
    c.mode = m;
    c.hyb_threshold = 100'000;
    c.flowlet_gap = 50 * kMicrosecond;
    return c;
  }

  static FlowRouteState flow_state() {
    FlowRouteState st;
    st.src_tor = 0;
    st.dst_tor = 1;
    return st;
  }

  std::vector<graph::NodeId> tors_{0, 1, 2, 3, 4, 5};
};

TEST_F(SourceRouterTest, EcmpNeverSetsVia) {
  SourceRouter r(config(RoutingMode::kEcmp), tors_, 1);
  auto st = flow_state();
  for (int i = 0; i < 100; ++i) {
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, i * kMillisecond);
    EXPECT_EQ(p.via_tor, graph::kInvalidNode);
  }
}

TEST_F(SourceRouterTest, VlbAlwaysSetsViaAvoidingEndpoints) {
  SourceRouter r(config(RoutingMode::kVlb), tors_, 1);
  auto st = flow_state();
  for (int i = 0; i < 200; ++i) {
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, i * kMillisecond);
    ASSERT_NE(p.via_tor, graph::kInvalidNode);
    EXPECT_NE(p.via_tor, st.src_tor);
    EXPECT_NE(p.via_tor, st.dst_tor);
  }
}

TEST_F(SourceRouterTest, FlowletIdIncrementsOnlyAfterGap) {
  SourceRouter r(config(RoutingMode::kEcmp), tors_, 1);
  auto st = flow_state();
  sim::Packet p1;
  p1.payload = 1440;
  r.prepare(st, p1, 0);
  sim::Packet p2;
  p2.payload = 1440;
  r.prepare(st, p2, 10 * kMicrosecond);  // within gap
  EXPECT_EQ(p1.flowlet, p2.flowlet);
  sim::Packet p3;
  p3.payload = 1440;
  r.prepare(st, p3, 10 * kMicrosecond + 51 * kMicrosecond);  // beyond gap
  EXPECT_EQ(p3.flowlet, p2.flowlet + 1);
}

TEST_F(SourceRouterTest, VlbViaStableWithinFlowletChangesAcross) {
  SourceRouter r(config(RoutingMode::kVlb), tors_, 1);
  auto st = flow_state();
  // Packets in rapid succession: same flowlet, same via.
  sim::Packet p1;
  p1.payload = 1440;
  r.prepare(st, p1, 0);
  sim::Packet p2;
  p2.payload = 1440;
  r.prepare(st, p2, kMicrosecond);
  EXPECT_EQ(p1.via_tor, p2.via_tor);
  // Across many flowlet gaps the via must eventually change.
  std::set<graph::NodeId> vias{p1.via_tor};
  TimeNs t = kMicrosecond;
  for (int i = 0; i < 50; ++i) {
    t += 60 * kMicrosecond;
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, t);
    vias.insert(p.via_tor);
  }
  EXPECT_GT(vias.size(), 1u);
}

TEST_F(SourceRouterTest, HybSwitchesToVlbAfterThreshold) {
  SourceRouter r(config(RoutingMode::kHyb), tors_, 1);
  auto st = flow_state();
  Bytes sent = 0;
  bool saw_ecmp_phase = false;
  bool saw_vlb_phase = false;
  TimeNs t = 0;
  while (sent < 300'000) {
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, t);
    if (sent < 100'000) {
      EXPECT_EQ(p.via_tor, graph::kInvalidNode) << "ECMP phase at " << sent;
      saw_ecmp_phase = true;
    }
    if (sent >= 100'000 + 1440) {
      EXPECT_NE(p.via_tor, graph::kInvalidNode) << "VLB phase at " << sent;
      saw_vlb_phase = true;
    }
    sent += 1440;
    t += kMicrosecond;
  }
  EXPECT_TRUE(saw_ecmp_phase);
  EXPECT_TRUE(saw_vlb_phase);
}

TEST_F(SourceRouterTest, HybShortFlowsNeverLeaveEcmp) {
  SourceRouter r(config(RoutingMode::kHyb), tors_, 1);
  auto st = flow_state();
  // 60 KB flow: all packets below the 100 KB threshold.
  for (Bytes sent = 0; sent < 60'000; sent += 1440) {
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, static_cast<TimeNs>(sent));
    EXPECT_EQ(p.via_tor, graph::kInvalidNode);
  }
}

}  // namespace
}  // namespace flexnets::routing
