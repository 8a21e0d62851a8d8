// The extended routing modes: HYB-ECN, KSP source routing, packet spraying,
// and the least-queue switch policy.
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hpp"
#include "routing/ksp_table.hpp"
#include "routing/strategy.hpp"
#include "topo/xpander.hpp"
#include "workload/flow_size.hpp"

namespace flexnets::routing {
namespace {

SourceRouteConfig config(RoutingMode m) {
  SourceRouteConfig c;
  c.mode = m;
  return c;
}

FlowRouteState flow_state(NodeId src = 0, NodeId dst = 1) {
  FlowRouteState st;
  st.src_tor = src;
  st.dst_tor = dst;
  return st;
}

TEST(HybEcn, SwitchesToVlbAfterEnoughMarks) {
  SourceRouter r(config(RoutingMode::kHybEcn), {0, 1, 2, 3, 4}, 1);
  auto st = flow_state();
  // Below the mark threshold: pure ECMP.
  st.ecn_echoes = 9;
  sim::Packet p1;
  p1.payload = 1440;
  r.prepare(st, p1, 0);
  EXPECT_EQ(p1.via_tor, graph::kInvalidNode);
  // At the threshold (default 10): VLB.
  st.ecn_echoes = 10;
  sim::Packet p2;
  p2.payload = 1440;
  r.prepare(st, p2, kMicrosecond);
  EXPECT_NE(p2.via_tor, graph::kInvalidNode);
}

TEST(HybEcn, NeverLeavesEcmpWithoutCongestion) {
  SourceRouter r(config(RoutingMode::kHybEcn), {0, 1, 2, 3, 4}, 1);
  auto st = flow_state();
  // 10 MB of traffic with zero marks: stays on ECMP (unlike byte-based HYB).
  for (Bytes sent = 0; sent < 10 * kMB; sent += 1440) {
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, static_cast<TimeNs>(sent));
    ASSERT_EQ(p.via_tor, graph::kInvalidNode);
  }
}

TEST(Spray, EveryPacketIsItsOwnFlowlet) {
  SourceRouter r(config(RoutingMode::kSpray), {0, 1, 2}, 1);
  auto st = flow_state();
  std::set<std::uint32_t> flowlets;
  for (int i = 0; i < 10; ++i) {
    sim::Packet p;
    p.payload = 1440;
    r.prepare(st, p, i);  // back-to-back, no flowlet gap
    flowlets.insert(p.flowlet);
  }
  EXPECT_EQ(flowlets.size(), 10u);
}

class KspRoutingTest : public ::testing::Test {
 protected:
  KspRoutingTest()
      : x_(topo::xpander(4, 4, 2, 3)), table_(x_.topo.g, 4) {
    SourceRouteConfig c = config(RoutingMode::kKsp);
    c.ksp_k = 4;
    router_ = std::make_unique<SourceRouter>(c, x_.topo.tors(), 1, &table_);
  }

  topo::Xpander x_;
  KspTable table_;
  std::unique_ptr<SourceRouter> router_;
};

TEST_F(KspRoutingTest, StampsAValidSourceRoute) {
  auto st = flow_state(0, 10);
  sim::Packet p;
  p.payload = 1440;
  p.dst_tor = 10;
  router_->prepare(st, p, 0);
  ASSERT_GT(p.src_route_len, 0);
  EXPECT_EQ(p.src_route[static_cast<std::size_t>(p.src_route_len - 1)], 10);
  // The stamped route must be one of the table's paths.
  const auto& paths = table_.paths(0, 10);
  bool found = false;
  for (const auto& path : paths) {
    if (static_cast<std::size_t>(p.src_route_len) + 1 != path.size()) continue;
    bool same = true;
    for (std::size_t i = 1; i < path.size(); ++i) {
      same &= (p.src_route[i - 1] == path[i]);
    }
    found |= same;
  }
  EXPECT_TRUE(found);
}

TEST_F(KspRoutingTest, PathStableWithinFlowletVariesAcross) {
  auto st = flow_state(0, 10);
  auto route_of = [&](TimeNs t) {
    sim::Packet p;
    p.payload = 1440;
    p.dst_tor = 10;
    router_->prepare(st, p, t);
    return std::vector<graph::NodeId>(
        p.src_route.begin(), p.src_route.begin() + p.src_route_len);
  };
  const auto r1 = route_of(0);
  const auto r2 = route_of(kMicrosecond);  // same flowlet
  EXPECT_EQ(r1, r2);
  // Across many flowlet gaps, at least two distinct paths are used.
  std::set<std::vector<graph::NodeId>> routes{r1};
  TimeNs t = kMicrosecond;
  for (int i = 0; i < 40; ++i) {
    t += 60 * kMicrosecond;
    routes.insert(route_of(t));
  }
  EXPECT_GE(routes.size(), 2u);
}

TEST_F(KspRoutingTest, ForwarderFollowsSourceRoute) {
  const auto ecmp = EcmpTable::build(x_.topo.g, x_.topo.tors());
  const SwitchForwarder fwd(ecmp, 3);
  auto st = flow_state(0, 10);
  sim::Packet p;
  p.payload = 1440;
  p.dst_tor = 10;
  router_->prepare(st, p, 0);
  ASSERT_GT(p.src_route_len, 0);
  // Walk the packet: each switch must forward to exactly the stamped hop.
  graph::NodeId at = 0;
  std::vector<graph::NodeId> visited{at};
  while (true) {
    const auto hops = fwd.candidates(at, p);
    if (hops.empty()) break;
    ASSERT_EQ(hops.size(), 1u);
    at = hops[0];
    visited.push_back(at);
    ASSERT_LE(visited.size(), 10u) << "routing loop";
  }
  EXPECT_EQ(at, 10);
}

TEST(KspPacketSim, FlowsCompleteUnderKspRouting) {
  const auto x = topo::xpander(4, 5, 2, 1);  // 25 switches? (5 meta x 5)
  core::PacketSimOptions opts;
  opts.arrival_rate = 50.0 * x.topo.num_servers();
  opts.window_begin = 2 * kMillisecond;
  opts.window_end = 12 * kMillisecond;
  opts.arrival_tail = 3 * kMillisecond;
  opts.net.routing.mode = RoutingMode::kKsp;
  opts.net.routing.ksp_k = 3;
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pfabric_web_search();
  const auto r = core::run_packet_experiment(x.topo, *pairs, *sizes, opts);
  EXPECT_GT(r.fct.measured_flows, 10);
  EXPECT_EQ(r.fct.incomplete_flows, 0);
  EXPECT_GT(r.fct.avg_long_tput_gbps, 0.5);
}

TEST(SprayPacketSim, FlowsCompleteUnderSpray) {
  const auto x = topo::xpander(4, 5, 2, 1);
  core::PacketSimOptions opts;
  opts.arrival_rate = 50.0 * x.topo.num_servers();
  opts.window_begin = 2 * kMillisecond;
  opts.window_end = 12 * kMillisecond;
  opts.arrival_tail = 3 * kMillisecond;
  opts.net.routing.mode = RoutingMode::kSpray;
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pareto_hull();
  const auto r = core::run_packet_experiment(x.topo, *pairs, *sizes, opts);
  EXPECT_GT(r.fct.measured_flows, 10);
  EXPECT_EQ(r.fct.incomplete_flows, 0);
}

TEST(LeastQueuePolicy, CompletesAndUsesBothPathsUnderContention) {
  // Two racks, two equal paths; least-queue should keep both busy even for
  // a single flow pair (it reacts per packet to queue buildup).
  const topo::Topology t(
      "grid4", graph::Graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}}),
      {2, 0, 0, 2});

  sim::NetworkConfig cfg;
  cfg.routing.mode = RoutingMode::kEcmp;
  cfg.routing.switch_policy = SwitchPolicy::kLeastQueue;
  sim::PacketNetwork net(t, cfg);
  std::vector<workload::FlowSpec> flows{
      {0, 0, 2, 4 * kMB}, {0, 1, 3, 4 * kMB}};
  net.run(flows);
  EXPECT_TRUE(net.engine().flow(0).completed);
  EXPECT_TRUE(net.engine().flow(1).completed);
  // Both middle paths carried a nontrivial share.
  EXPECT_GT(net.link_between(0, 1).bytes_sent(), Bytes{1 * kMB});
  EXPECT_GT(net.link_between(0, 2).bytes_sent(), Bytes{1 * kMB});
}

}  // namespace
}  // namespace flexnets::routing
