// The flow-level max-min simulator: exact sharing on small instances and
// consistency with the packet simulator's qualitative behavior.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "flowsim/flow_sim.hpp"
#include "topo/xpander.hpp"
#include "workload/flow_size.hpp"

namespace flexnets::flowsim {
namespace {

topo::Topology two_racks() {
  return topo::Topology("two-racks", graph::Graph(2, {{0, 1}}), {4, 4});
}

workload::FlowSpec flow(TimeNs start, int src, int dst, Bytes size) {
  return {start, src, dst, size};
}

TEST(FlowSim, SingleFlowRunsAtLineRate) {
  const auto t = two_racks();
  FlowLevelSimulator sim(t, {});
  const auto recs = sim.run({flow(0, 0, 4, 10 * kMB)});
  ASSERT_TRUE(recs[0].completed());
  // 10 MB at 10 Gbps = 8 ms exactly (fluid, no headers).
  EXPECT_NEAR(to_millis(recs[0].fct()), 8.0, 0.01);
}

TEST(FlowSim, TwoFlowsShareTheBottleneckFairly) {
  const auto t = two_racks();
  FlowLevelSimulator sim(t, {});
  // Both cross the single inter-rack link: each gets 5 Gbps, then the
  // survivor speeds up. Flow sizes 5 MB and 10 MB:
  //   [0, 8ms):  both at 5G -> flow 0 done at 8ms (5MB at 5G).
  //   [8, 12ms): flow 1 alone at 10G for its remaining 5MB -> done at 12ms.
  const auto recs = sim.run({flow(0, 0, 4, 5 * kMB), flow(0, 1, 5, 10 * kMB)});
  ASSERT_TRUE(recs[0].completed());
  ASSERT_TRUE(recs[1].completed());
  EXPECT_NEAR(to_millis(recs[0].fct()), 8.0, 0.05);
  EXPECT_NEAR(to_millis(recs[1].fct()), 12.0, 0.05);
}

TEST(FlowSim, ServerNicLimitsIntraRackFlow) {
  const auto t = two_racks();
  FlowLevelSimulator sim(t, {});
  // Intra-rack (no network links): still limited by the 10G NICs.
  const auto recs = sim.run({flow(0, 0, 1, 10 * kMB)});
  ASSERT_TRUE(recs[0].completed());
  EXPECT_NEAR(to_millis(recs[0].fct()), 8.0, 0.01);
}

TEST(FlowSim, LateArrivalStartsOnTime) {
  const auto t = two_racks();
  FlowLevelSimulator sim(t, {});
  const auto recs =
      sim.run({flow(5 * kMillisecond, 0, 4, 1 * kMB)});
  ASSERT_TRUE(recs[0].completed());
  EXPECT_EQ(recs[0].start, 5 * kMillisecond);
  EXPECT_NEAR(to_millis(recs[0].fct()), 0.8, 0.01);
}

TEST(FlowSim, EcmpSplitUsesAggregateCapacity) {
  // Two disjoint 2-hop paths between ToR 0 and 3 (grid); a single split
  // flow gets ~20G, a sampled flow only 10G.
  const topo::Topology t(
      "grid", graph::Graph(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}}),
      {1, 0, 0, 1});

  FlowSimConfig split_cfg;
  split_cfg.routing = FlowRouting::kEcmpSplit;
  split_cfg.server_rate = 40 * kGbps;  // NIC must not bind
  FlowLevelSimulator split_sim(t, split_cfg);
  const auto split = split_sim.run({flow(0, 0, 1, 10 * kMB)});

  FlowSimConfig sampled_cfg;
  sampled_cfg.routing = FlowRouting::kEcmpSampled;
  sampled_cfg.server_rate = 40 * kGbps;
  FlowLevelSimulator sampled_sim(t, sampled_cfg);
  const auto sampled = sampled_sim.run({flow(0, 0, 1, 10 * kMB)});

  EXPECT_NEAR(to_millis(split[0].fct()), 4.0, 0.05);    // 20G
  EXPECT_NEAR(to_millis(sampled[0].fct()), 8.0, 0.05);  // 10G
}

TEST(FlowSim, VlbTakesTwoLegs) {
  // Triangle of ToRs: VLB via the third rack still completes; with an
  // otherwise idle network FCT equals the sampled-path FCT (rate-limited
  // by one link either way in fluid terms).
  const topo::Topology t("triangle",
                         graph::Graph(3, {{0, 1}, {1, 2}, {0, 2}}),
                         {2, 2, 2});
  FlowSimConfig cfg;
  cfg.routing = FlowRouting::kVlb;
  FlowLevelSimulator sim(t, cfg);
  const auto recs = sim.run({flow(0, 0, 2, 5 * kMB)});
  ASSERT_TRUE(recs[0].completed());
  EXPECT_NEAR(to_millis(recs[0].fct()), 4.0, 0.05);
}

TEST(FlowSim, HybRoutesShortAndLongDifferently) {
  const auto x = topo::xpander(4, 4, 2, 1);
  FlowSimConfig cfg;
  cfg.routing = FlowRouting::kHyb;
  FlowLevelSimulator sim(x.topo, cfg);
  std::vector<workload::FlowSpec> flows;
  for (int i = 0; i < 50; ++i) {
    flows.push_back(flow(i * 10 * kMicrosecond, i % 8, 24 + i % 8,
                         i % 2 == 0 ? 50 * kKB : 2 * kMB));
  }
  const auto recs = sim.run(flows);
  for (const auto& r : recs) EXPECT_TRUE(r.completed());
}

TEST(FlowSim, DeterministicAcrossInstances) {
  const auto x = topo::xpander(4, 4, 2, 1);
  auto run_once = [&]() {
    FlowSimConfig cfg;
    cfg.routing = FlowRouting::kHyb;
    cfg.seed = 5;
    FlowLevelSimulator sim(x.topo, cfg);
    std::vector<workload::FlowSpec> flows;
    for (int i = 0; i < 30; ++i) {
      flows.push_back(flow(i * kMicrosecond, i % 10, 20 + i % 10, 500 * kKB));
    }
    return sim.run(flows);
  };
  const auto a = run_once();
  const auto b = run_once();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].end, b[i].end);
}

TEST(FlowSim, AgreesWithPacketSimOnOrdering) {
  // The two simulators should agree on WHO wins (ECMP vs VLB on the
  // adjacent-rack hotspot), even though absolute FCTs differ.
  const auto x = topo::xpander(4, 4, 5, 3);
  const auto e0 = x.topo.g.edge(0);
  const int sa = x.topo.first_server_of_switch(e0.a);
  const int sb = x.topo.first_server_of_switch(e0.b);
  std::vector<workload::FlowSpec> flows;
  for (int i = 0; i < 3; ++i) {
    flows.push_back(flow(0, sa + i, sb + i, 4 * kMB));
    flows.push_back(flow(0, sb + i, sa + i, 4 * kMB));
  }
  auto worst = [&](FlowRouting r) {
    FlowSimConfig cfg;
    cfg.routing = r;
    FlowLevelSimulator sim(x.topo, cfg);
    TimeNs w = 0;
    for (const auto& rec : sim.run(flows)) {
      w = std::max(w, rec.end);
    }
    return w;
  };
  EXPECT_LT(worst(FlowRouting::kVlb), worst(FlowRouting::kEcmpSampled));
}

}  // namespace
}  // namespace flexnets::flowsim
