// End-to-end packet-network tests: topology + routing + DCTCP together,
// including miniature versions of the paper's qualitative results.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "topo/fat_tree.hpp"
#include "topo/xpander.hpp"
#include "workload/flow_size.hpp"

namespace flexnets {
namespace {

sim::NetworkConfig default_net(routing::RoutingMode mode,
                               std::uint64_t seed = 1) {
  sim::NetworkConfig cfg;
  cfg.routing.mode = mode;
  cfg.seed = seed;
  return cfg;
}

workload::FlowSpec make_flow(TimeNs start, int src, int dst, Bytes size) {
  return {start, src, dst, size};
}

class SingleFlowTest : public ::testing::Test {
 protected:
  // Xpander: 12 switches, degree 3, 2 servers each.
  SingleFlowTest() : x_(topo::xpander(3, 3, 2, 1)) {}

  topo::Xpander x_;
};

TEST_F(SingleFlowTest, FlowCompletesAndApproachesLineRate) {
  sim::PacketNetwork net(x_.topo, default_net(routing::RoutingMode::kEcmp));
  std::vector<workload::FlowSpec> flows{make_flow(0, 0, 23, 10 * kMB)};
  net.run(flows);
  const auto& f = net.engine().flow(0);
  ASSERT_TRUE(f.completed);
  const double gbps =
      static_cast<double>(f.size) * 8.0 /
      static_cast<double>(f.completion_time - f.start_time);
  // 10 Gbps links; DCTCP should reach a solid fraction of line rate on an
  // uncontended path for a 10 MB flow.
  EXPECT_GT(gbps, 6.0);
  EXPECT_LE(gbps, 10.0);
  EXPECT_EQ(net.total_drops(), 0u);
}

TEST_F(SingleFlowTest, IntraRackFlowStaysLocal) {
  sim::PacketNetwork net(x_.topo, default_net(routing::RoutingMode::kEcmp));
  // Servers 0 and 1 are both on switch 0.
  std::vector<workload::FlowSpec> flows{make_flow(0, 0, 1, 1 * kMB)};
  net.run(flows);
  ASSERT_TRUE(net.engine().flow(0).completed);
  // No network link (switch-to-switch) carried data: check a few.
  for (const auto& e : x_.topo.g.edges()) {
    EXPECT_EQ(net.link_between(e.a, e.b).packets_sent(), 0u);
    EXPECT_EQ(net.link_between(e.b, e.a).packets_sent(), 0u);
  }
}

TEST_F(SingleFlowTest, DeterministicAcrossRuns) {
  auto run_once = [&]() {
    sim::PacketNetwork net(x_.topo, default_net(routing::RoutingMode::kHyb));
    std::vector<workload::FlowSpec> flows{
        make_flow(0, 0, 23, 2 * kMB), make_flow(1000, 2, 21, 500 * kKB),
        make_flow(2000, 5, 18, 50 * kKB)};
    net.run(flows);
    std::vector<TimeNs> completions;
    for (std::size_t i = 0; i < net.engine().num_flows(); ++i) {
      completions.push_back(
          net.engine().flow(static_cast<std::int32_t>(i)).completion_time);
    }
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(SingleFlowTest, VlbTakesLongerPathsButCompletes) {
  sim::PacketNetwork ecmp_net(x_.topo, default_net(routing::RoutingMode::kEcmp));
  sim::PacketNetwork vlb_net(x_.topo, default_net(routing::RoutingMode::kVlb));
  std::vector<workload::FlowSpec> flows{make_flow(0, 0, 4, 100 * kKB)};
  ecmp_net.run(flows);
  vlb_net.run(flows);
  const auto& fe = ecmp_net.engine().flow(0);
  const auto& fv = vlb_net.engine().flow(0);
  ASSERT_TRUE(fe.completed);
  ASSERT_TRUE(fv.completed);
  // VLB inflates path length, so an uncontended flow is never faster.
  EXPECT_GE(fv.completion_time, fe.completion_time);
}

TEST(FatTreeIntegration, CrossPodPermutationGetsFullBandwidth) {
  // k=4 full fat-tree is rearrangeably non-blocking; one flow per server
  // pair across pods should see near line rate with flowlet ECMP.
  const auto ft = topo::fat_tree(4);
  sim::PacketNetwork net(ft.topo, default_net(routing::RoutingMode::kEcmp));
  // Servers 0..7 in pods 0-1 send to servers 8..15 in pods 2-3.
  std::vector<workload::FlowSpec> flows;
  for (int s = 0; s < 8; ++s) flows.push_back(make_flow(0, s, 8 + s, 4 * kMB));
  net.run(flows);
  double sum_gbps = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
    ASSERT_TRUE(f.completed);
    const double gbps = static_cast<double>(f.size) * 8.0 /
                        static_cast<double>(f.completion_time - f.start_time);
    // Individual flows can lose ECMP hash collisions (flowlets cannot
    // rebalance backlogged flows that never pause 50us), but no flow
    // should collapse and the average should be well above half rate.
    EXPECT_GT(gbps, 2.0) << "flow " << i;
    sum_gbps += gbps;
  }
  EXPECT_GT(sum_gbps / static_cast<double>(flows.size()), 4.0);
}

TEST(TwoRackCornerCase, VlbBeatsEcmpWhenAdjacentRacksSaturate) {
  // Paper Fig 7(a)/(b) in miniature: two directly-connected ToRs; ECMP is
  // stuck on the single direct link while VLB spreads over the expander.
  const auto x = topo::xpander(4, 4, 5, 3);  // 20 switches, degree 4
  // Find two adjacent ToRs.
  const auto e0 = x.topo.g.edge(0);
  const int servers_a = x.topo.first_server_of_switch(e0.a);
  const int servers_b = x.topo.first_server_of_switch(e0.b);

  struct ModeResult {
    TimeNs worst = 0;
    int uplinks_used = 0;  // of rack a's network links carrying data
  };
  auto run_mode = [&](routing::RoutingMode mode) {
    sim::PacketNetwork net(x.topo, default_net(mode));
    std::vector<workload::FlowSpec> flows;
    // 3 large flows each way between the two racks: 3x the direct link,
    // but within the rack's aggregate uplink capacity (4 x 10G), so VLB
    // can use path diversity while ECMP shares the one direct link.
    for (int i = 0; i < 3; ++i) {
      flows.push_back(make_flow(0, servers_a + i, servers_b + i, 4 * kMB));
      flows.push_back(make_flow(0, servers_b + i, servers_a + i, 4 * kMB));
    }
    net.run(flows);
    ModeResult r;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
      EXPECT_TRUE(f.completed);
      r.worst = std::max(r.worst, f.completion_time);
    }
    for (const auto n : x.topo.g.neighbors(e0.a)) {
      // Significant data, not just stray ACKs.
      if (net.link_between(e0.a, n).bytes_sent() > 100 * kKB) ++r.uplinks_used;
    }
    return r;
  };

  const auto ecmp = run_mode(routing::RoutingMode::kEcmp);
  const auto vlb = run_mode(routing::RoutingMode::kVlb);
  // ECMP is pinned to the single shortest path; VLB exploits diversity.
  EXPECT_EQ(ecmp.uplinks_used, 1);
  EXPECT_GE(vlb.uplinks_used, 3);
  EXPECT_LT(vlb.worst, ecmp.worst)
      << "VLB should finish the rack-pair hotspot sooner than ECMP";
  // (The dramatic FCT gap of Fig 7(b) appears under Poisson load sweeps --
  // see bench_packet_figures --figure fig7b; a fixed batch bounds the
  // makespan gap by the capacity ratio minus VLB's own collisions, so only
  // strict ordering is asserted.)
}

TEST(HybIntegration, ShortFlowsStayOnShortPathsLongFlowsSpread) {
  const auto x = topo::xpander(4, 4, 5, 3);
  const auto e0 = x.topo.g.edge(0);
  const int sa = x.topo.first_server_of_switch(e0.a);
  const int sb = x.topo.first_server_of_switch(e0.b);

  sim::NetworkConfig cfg = default_net(routing::RoutingMode::kHyb);
  sim::PacketNetwork net(x.topo, cfg);
  std::vector<workload::FlowSpec> flows{
      make_flow(0, sa, sb, 50 * kKB),    // short: below Q
      make_flow(0, sa + 1, sb + 1, 2 * kMB)};  // long: goes VLB after Q
  net.run(flows);
  ASSERT_TRUE(net.engine().flow(0).completed);
  ASSERT_TRUE(net.engine().flow(1).completed);
  // The short flow never left ECMP.
  EXPECT_EQ(net.engine().flow(0).route.via, graph::kInvalidNode);
  // The long flow switched to VLB at some point.
  EXPECT_GT(net.engine().flow(1).route.bytes_sent, Bytes{100'000});
  EXPECT_NE(net.engine().flow(1).route.via, graph::kInvalidNode);
}

TEST(PacketRunnerIntegration, SummaryMetricsPopulated) {
  const auto x = topo::xpander(3, 4, 2, 1);  // 16 switches, 32 servers
  core::PacketSimOptions opts;
  opts.arrival_rate = 4000.0;
  opts.window_begin = 5 * kMillisecond;
  opts.window_end = 25 * kMillisecond;
  opts.arrival_tail = 5 * kMillisecond;
  opts.net = default_net(routing::RoutingMode::kHyb);
  opts.seed = 9;

  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pfabric_web_search();
  const auto r = core::run_packet_experiment(x.topo, *pairs, *sizes, opts);

  EXPECT_GT(r.fct.measured_flows, 20);
  EXPECT_EQ(r.fct.incomplete_flows, 0);
  EXPECT_GT(r.fct.avg_fct_ms, 0.0);
  EXPECT_GT(r.fct.p99_short_fct_ms, 0.0);
  EXPECT_GT(r.fct.avg_long_tput_gbps, 0.0);
  EXPECT_LE(r.fct.avg_long_tput_gbps, 10.0);
  EXPECT_GT(r.events, 1000u);
}

TEST(PacketRunnerIntegration, IdenticalSeedsIdenticalResults) {
  const auto x = topo::xpander(3, 3, 2, 1);
  core::PacketSimOptions opts;
  opts.arrival_rate = 2000.0;
  opts.window_begin = 2 * kMillisecond;
  opts.window_end = 12 * kMillisecond;
  opts.arrival_tail = 3 * kMillisecond;
  opts.net = default_net(routing::RoutingMode::kEcmp);
  const auto pairs = workload::all_to_all_pairs(x.topo, x.topo.tors());
  const auto sizes = workload::pareto_hull();
  const auto a = core::run_packet_experiment(x.topo, *pairs, *sizes, opts);
  const auto b = core::run_packet_experiment(x.topo, *pairs, *sizes, opts);
  EXPECT_DOUBLE_EQ(a.fct.avg_fct_ms, b.fct.avg_fct_ms);
  EXPECT_EQ(a.events, b.events);
}

TEST(ServerBottleneckModeling, UnconstrainedAccessLinksSpeedUpFanIn) {
  // The ProjecToR-comparison setting (paper 6.6) raises server-link rates;
  // a 2-to-1 fan-in completes faster when access links are unconstrained.
  const auto x = topo::xpander(4, 3, 4, 2);
  auto run_with_server_rate = [&](RateBps rate) {
    sim::NetworkConfig cfg = default_net(routing::RoutingMode::kEcmp);
    cfg.server_link.rate = rate;
    sim::PacketNetwork net(x.topo, cfg);
    // Two servers on different racks send to the same destination server.
    const int dst = 0;
    std::vector<workload::FlowSpec> flows{
        make_flow(0, x.topo.first_server_of_switch(1), dst, 4 * kMB),
        make_flow(0, x.topo.first_server_of_switch(2), dst, 4 * kMB)};
    net.run(flows);
    TimeNs worst = 0;
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(net.engine().flow(i).completed);
      worst = std::max(worst, net.engine().flow(i).completion_time);
    }
    return worst;
  };
  const auto constrained = run_with_server_rate(10 * kGbps);
  const auto unconstrained = run_with_server_rate(100 * kGbps);
  EXPECT_LT(unconstrained, constrained);
}

}  // namespace
}  // namespace flexnets
