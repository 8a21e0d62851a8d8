// Differential suite for the gray-failure model (ctest -L gray):
//
//  - same-seed event-digest equality between the serial engine and the
//    conservative PDES engine across thread counts {1, 2, 4, 8} for gray
//    plans (lossy + degraded + flapping links, with and without a binary
//    failure mixed in) on all three topology families;
//  - the packet engine's delivered-goodput timeline agreeing with the
//    flowsim fluid capacity model within a documented tolerance;
//  - degrade-to-rate-0 being *exactly* a link-down (bit-identical digests
//    on both engines);
//  - post_repair_blackholes == 0 with detected-lossy links excluded from
//    the repaired tables (the FLEXNETS_AUDIT proof extended to gray);
//  - the PDES precondition that detection latency covers the lookahead.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "flowsim/flow_sim.hpp"
#include "metrics/degradation.hpp"
#include "sim/network.hpp"
#include "sim/pdes/runner.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"
#include "workload/arrivals.hpp"

namespace flexnets {
namespace {

enum class TopoKind { kFatTree, kXpander, kJellyfish };

topo::Topology make_topo(TopoKind kind) {
  switch (kind) {
    case TopoKind::kFatTree:
      return topo::fat_tree(4).topo;
    case TopoKind::kXpander:
      return topo::xpander(3, 4, 2, 1).topo;
    case TopoKind::kJellyfish:
      break;
  }
  return topo::jellyfish(16, 3, 2, 42);
}

const char* topo_name(TopoKind kind) {
  switch (kind) {
    case TopoKind::kFatTree:
      return "fattree";
    case TopoKind::kXpander:
      return "xpander";
    case TopoKind::kJellyfish:
      return "jellyfish";
  }
  return "?";
}

std::vector<workload::FlowSpec> crossing_flows(const topo::Topology& t) {
  // Three waves; the middle one is sized to still be in flight across the
  // whole 1-4 ms gray window so the randomly drawn victims carry traffic.
  std::vector<workload::FlowSpec> flows;
  const int n = t.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 256 * kKB});
    flows.push_back({1 * kMillisecond + s * kMicrosecond, (s + 1) % n, s,
                     2 * kMB});
    flows.push_back({2 * kMillisecond + s * kMicrosecond, (s + n / 3) % n, s,
                     64 * kKB});
  }
  return flows;
}

// The full gray cocktail; `with_binary` mixes in a hard link failure so
// kFault / kRepair / kDetect serial timestamps interleave under PDES.
fault::FaultPlan gray_plan(const topo::Topology& t, bool with_binary) {
  fault::RandomFaultOptions opt;
  opt.link_failures = with_binary ? 1 : 0;
  opt.window_begin = 1 * kMillisecond;
  opt.window_end = 4 * kMillisecond;
  opt.repair_after = 3 * kMillisecond;
  opt.lossy_links = 2;
  opt.loss_prob = 0.05;
  opt.degraded_links = 1;
  opt.degrade_fraction = 0.5;
  opt.flapping_links = 1;
  opt.flap_period = 1 * kMillisecond;
  opt.flap_duty = 0.5;
  return fault::FaultPlan::random(t, opt, 11);
}

sim::NetworkConfig gray_config(const fault::FaultPlan* plan,
                               int detect_threshold = 16) {
  sim::NetworkConfig cfg;
  cfg.routing.mode = routing::RoutingMode::kHyb;
  cfg.seed = 7;
  cfg.faults = plan;
  cfg.control_plane_delay = 200 * kMicrosecond;
  cfg.detector.detect_threshold = detect_threshold;
  return cfg;
}

// ---------------------------------------------------------------------------
// Serial vs PDES digest equality on gray plans.

struct GrayDigestCase {
  TopoKind topo;
  int threads;
  bool with_binary;
  // Explicit, zeroed padding: gtest prints a case as its raw bytes and
  // CTest's test discovery appends that printout to each test's name, so
  // uninitialized padding made a name change from build to build. (A
  // PrintTo would also fix that, but rename all twenty-four cases.)
  std::uint8_t padding[3] = {};
};

std::string case_name(const ::testing::TestParamInfo<GrayDigestCase>& info) {
  return std::string(topo_name(info.param.topo)) + "_t" +
         std::to_string(info.param.threads) +
         (info.param.with_binary ? "_mixed" : "_gray");
}

class GrayDigestTest : public ::testing::TestWithParam<GrayDigestCase> {
 protected:
  CheckPolicyScope policy_{CheckPolicy::kThrow};
  AuditScope audit_{true};
};

TEST_P(GrayDigestTest, ParallelDigestMatchesSerial) {
  const auto& p = GetParam();
  const auto t = make_topo(p.topo);
  const auto plan = gray_plan(t, p.with_binary);
  ASSERT_TRUE(plan.has_gray());
  const auto flows = crossing_flows(t);

  sim::PacketNetwork serial(t, gray_config(&plan));
  serial.run(flows);
  const std::uint64_t ref = serial.simulator().event_digest();
  const auto serial_stats = serial.fault_stats();
  ASSERT_NE(ref, Digest{}.value());
  // The plan must actually exercise the gray machinery, or this test
  // proves nothing.
  ASSERT_GT(serial_stats.gray_loss_drops, 0u);
  ASSERT_GT(serial_stats.detections, 0u);

  sim::PacketNetwork net(t, gray_config(&plan));
  sim::pdes::RunnerConfig pcfg;
  pcfg.threads = p.threads;
  const auto stats = sim::pdes::run_parallel(net, flows, pcfg);

  EXPECT_EQ(stats.event_digest, ref);
  EXPECT_EQ(stats.events, serial.simulator().events_processed());
  // The gray accounting must agree too, not just the event stream.
  const auto pstats = net.fault_stats();
  EXPECT_EQ(pstats.gray_loss_drops, serial_stats.gray_loss_drops);
  EXPECT_EQ(pstats.detections, serial_stats.detections);
  EXPECT_EQ(pstats.gray_links_excluded, serial_stats.gray_links_excluded);
  EXPECT_EQ(pstats.repairs, serial_stats.repairs);
  EXPECT_EQ(pstats.post_repair_blackholes, 0u);
  for (std::size_t i = 0; i < net.engine().num_flows(); ++i) {
    EXPECT_TRUE(net.engine().flow(static_cast<std::int32_t>(i)).completed)
        << "flow " << i;
  }
}

std::vector<GrayDigestCase> gray_digest_cases() {
  std::vector<GrayDigestCase> cases;
  for (const auto topo :
       {TopoKind::kFatTree, TopoKind::kXpander, TopoKind::kJellyfish}) {
    for (const int threads : {1, 2, 4, 8}) {
      for (const bool with_binary : {false, true}) {
        cases.push_back({topo, threads, with_binary});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SerialVsParallel, GrayDigestTest,
                         ::testing::ValuesIn(gray_digest_cases()), case_name);

// ---------------------------------------------------------------------------
// The rest of the differential surface.

class GrayModelTest : public ::testing::Test {
 protected:
  CheckPolicyScope policy_{CheckPolicy::kThrow};
  AuditScope audit_{true};
};

TEST_F(GrayModelTest, GoodputTimelineAgreesWithFlowsimCapacityModel) {
  // Saturating long flows under a degrade-heavy plan: the packet engine's
  // delivered-goodput curve and flowsim's fluid allocation must tell the
  // same capacity story. Documented tolerance: 35% on the mean over the
  // faulted window -- flowsim is a max-min fluid ideal with no transport
  // dynamics, while the packet engine pays DCTCP ramp-up, queueing, and
  // retransmissions; bench_flowsim_validation quantifies the same gap on
  // clean runs.
  const auto x = topo::xpander(3, 3, 2, 1);
  std::vector<workload::FlowSpec> flows;
  const int n = x.topo.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 40 * kMB});
  }
  fault::FaultPlan plan;
  plan.add({2 * kMillisecond, fault::FaultKind::kLinkDegrade, 0, 0.3});
  plan.add({3 * kMillisecond, fault::FaultKind::kLinkLossy, 3, 0.01});
  plan.add({20 * kMillisecond, fault::FaultKind::kLinkRestore, 0});
  plan.add({20 * kMillisecond, fault::FaultKind::kLinkRestore, 3});
  plan.validate(x.topo);
  const TimeNs horizon = 30 * kMillisecond;

  metrics::ThroughputTimeline packet_tl(kMillisecond);
  sim::PacketNetwork net(x.topo, gray_config(&plan));
  net.set_timeline(&packet_tl);
  net.run(flows, horizon);

  flowsim::FlowSimConfig fcfg;
  fcfg.seed = 7;
  fcfg.faults = &plan;
  fcfg.control_plane_delay = 200 * kMicrosecond;
  metrics::ThroughputTimeline fluid_tl(kMillisecond);
  flowsim::FlowLevelSimulator fluid(x.topo, fcfg);
  fluid.set_timeline(&fluid_tl);
  fluid.run(flows);

  const auto packet_series = packet_tl.series(horizon);
  const auto fluid_series = fluid_tl.series(horizon);
  // Compare the faulted steady state, past the DCTCP ramp and the fault
  // transients.
  const double packet_gbps =
      metrics::mean_gbps(packet_series, 6 * kMillisecond, 18 * kMillisecond);
  const double fluid_gbps =
      metrics::mean_gbps(fluid_series, 6 * kMillisecond, 18 * kMillisecond);
  ASSERT_GT(packet_gbps, 0.0);
  ASSERT_GT(fluid_gbps, 0.0);
  EXPECT_NEAR(packet_gbps / fluid_gbps, 1.0, 0.35)
      << "packet " << packet_gbps << " Gbps vs fluid " << fluid_gbps;
}

TEST_F(GrayModelTest, DegradeToZeroIsExactlyLinkDown) {
  // Pin the degrade-0 == kLinkDown equivalence end to end: same event
  // digests on the packet engine, same completion digests on flowsim.
  const auto x = topo::xpander(3, 3, 2, 1);
  const auto flows = crossing_flows(x.topo);
  fault::FaultPlan down;
  down.add({2 * kMillisecond, fault::FaultKind::kLinkDown, 2});
  down.add({5 * kMillisecond, fault::FaultKind::kLinkUp, 2});
  fault::FaultPlan degrade0;
  degrade0.add({2 * kMillisecond, fault::FaultKind::kLinkDegrade, 2, 0.0});
  degrade0.add({5 * kMillisecond, fault::FaultKind::kLinkRestore, 2});

  auto run_packet = [&](const fault::FaultPlan& plan) {
    sim::PacketNetwork net(x.topo, gray_config(&plan));
    net.run(flows);
    const auto stats = net.fault_stats();
    EXPECT_GT(stats.repairs, 0u);
    EXPECT_EQ(stats.post_repair_blackholes, 0u);
    EXPECT_EQ(stats.gray_loss_drops, 0u);  // a dead link is not lossy
    return net.simulator().event_digest();
  };
  EXPECT_EQ(run_packet(down), run_packet(degrade0));

  auto run_fluid = [&](const fault::FaultPlan& plan) {
    flowsim::FlowSimConfig cfg;
    cfg.seed = 5;
    cfg.faults = &plan;
    cfg.control_plane_delay = 200 * kMicrosecond;
    flowsim::FlowLevelSimulator sim(x.topo, cfg);
    const auto recs = sim.run(flows);
    for (const auto& r : recs) EXPECT_TRUE(r.completed());
    return sim.last_run_digest();
  };
  EXPECT_EQ(run_fluid(down), run_fluid(degrade0));
}

TEST_F(GrayModelTest, DetectedLossyLinksAreExcludedWithoutBlackholes) {
  // A very lossy link with an aggressive detector: the control plane must
  // notice it, route around it, and the audit must still prove zero
  // post-repair blackholes with the exclusion in force.
  const auto x = topo::xpander(3, 4, 2, 1);
  fault::FaultPlan plan;
  plan.add({1 * kMillisecond, fault::FaultKind::kLinkLossy, 0, 0.5});
  plan.validate(x.topo);

  std::vector<workload::FlowSpec> flows;
  const int n = x.topo.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 1 * kMB});
  }
  metrics::CountTimeline losses(kMillisecond);
  sim::PacketNetwork net(x.topo, gray_config(&plan, /*detect_threshold=*/8));
  net.set_loss_timeline(&losses);
  net.run(flows, 60 * kMillisecond);

  const auto stats = net.fault_stats();
  EXPECT_GT(stats.gray_loss_drops, 8u);
  EXPECT_GE(stats.detections, 1u);
  EXPECT_GE(stats.gray_links_excluded, 1u);
  EXPECT_GT(stats.repairs, 0u);
  EXPECT_EQ(stats.post_repair_blackholes, 0u);
  EXPECT_TRUE(net.gray_detector().detected(0));
  // The loss timeline saw every gray drop.
  EXPECT_EQ(losses.total(), stats.gray_loss_drops);
  // Undetected-vs-detected is the observable difference between blackhole
  // drops and gray losses: none of the gray losses were counted as
  // blackholes (the route existed the whole time).
  EXPECT_EQ(stats.blackhole_drops, 0u);
}

TEST_F(GrayModelTest, RouteAroundGrayCanBeDisabled) {
  const auto x = topo::xpander(3, 4, 2, 1);
  fault::FaultPlan plan;
  plan.add({1 * kMillisecond, fault::FaultKind::kLinkLossy, 0, 0.5});
  std::vector<workload::FlowSpec> flows;
  const int n = x.topo.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 1 * kMB});
  }
  auto cfg = gray_config(&plan, 8);
  cfg.route_around_gray = false;
  sim::PacketNetwork net(x.topo, cfg);
  net.run(flows, 60 * kMillisecond);
  const auto stats = net.fault_stats();
  // Detection still happens; the repair just declines to use it.
  EXPECT_GE(stats.detections, 1u);
  EXPECT_EQ(stats.gray_links_excluded, 0u);
  EXPECT_EQ(stats.post_repair_blackholes, 0u);
}

TEST_F(GrayModelTest, PdesRequiresDetectLatencyAboveLookahead) {
  // The conservative argument schedules kDetect at now + detect_latency;
  // a latency below the lookahead could land a detection inside the
  // current epoch window, so run_parallel must refuse it up front.
  const auto x = topo::xpander(3, 3, 2, 1);
  const auto plan = gray_plan(x.topo, false);
  const auto flows = crossing_flows(x.topo);
  auto cfg = gray_config(&plan);
  cfg.detector.detect_latency = cfg.network_link.propagation / 2;
  sim::PacketNetwork net(x.topo, cfg);
  sim::pdes::RunnerConfig pcfg;
  pcfg.threads = 2;
  EXPECT_THROW(sim::pdes::run_parallel(net, flows, pcfg), CheckFailure);
}

TEST_F(GrayModelTest, LossTimelineIsSerialOnly) {
  const auto x = topo::xpander(3, 3, 2, 1);
  const auto plan = gray_plan(x.topo, false);
  const auto flows = crossing_flows(x.topo);
  metrics::CountTimeline losses(kMillisecond);
  sim::PacketNetwork net(x.topo, gray_config(&plan));
  net.set_loss_timeline(&losses);
  sim::pdes::RunnerConfig pcfg;
  pcfg.threads = 2;
  EXPECT_THROW(sim::pdes::run_parallel(net, flows, pcfg), CheckFailure);
}

TEST_F(GrayModelTest, FlapParametersShapeTheLossPattern) {
  // A flapping link drops roughly (1 - duty) of the traffic offered to it
  // while flapping; a shorter period does not change that fraction, only
  // the burst structure. Sanity-check the admission model end to end by
  // steering one flow across a single path.
  const auto x = topo::xpander(3, 3, 2, 1);
  fault::FaultPlan plan;
  plan.add({1 * kMillisecond, fault::FaultKind::kLinkFlap, 0,
            static_cast<double>(500 * kMicrosecond), 0.5});
  plan.validate(x.topo);
  std::vector<workload::FlowSpec> flows;
  const int n = x.topo.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 2 * kMB});
  }
  sim::PacketNetwork net(x.topo, gray_config(&plan));
  net.run(flows, 100 * kMillisecond);
  const auto stats = net.fault_stats();
  EXPECT_GT(stats.gray_loss_drops, 0u);
  // The flap's first down transition is detected even when no loss ever
  // crosses the threshold counter.
  EXPECT_GE(stats.detections, 1u);
  EXPECT_EQ(stats.post_repair_blackholes, 0u);
}

}  // namespace
}  // namespace flexnets
