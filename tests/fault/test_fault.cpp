// Live fault injection (src/fault): plan generation / serialization,
// LiveState bookkeeping, the repaired-tables audit, and both engines
// running through failures -- including the same-seed determinism digests
// with an active fault plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "fault/audit.hpp"
#include "fault/detector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/live_state.hpp"
#include "flowsim/flow_sim.hpp"
#include "metrics/degradation.hpp"
#include "routing/routing_table.hpp"
#include "sim/network.hpp"
#include "topo/fat_tree.hpp"
#include "topo/xpander.hpp"

namespace flexnets {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  CheckPolicyScope policy_{CheckPolicy::kThrow};
};

topo::NodeId tor_of(const topo::Topology& t, int server) {
  for (topo::NodeId sw = 0; sw < t.num_switches(); ++sw) {
    const int first = t.first_server_of_switch(sw);
    if (server >= first && server < first + t.servers_per_switch()[sw]) {
      return sw;
    }
  }
  return graph::kInvalidNode;
}

fault::RandomFaultOptions window_opt(int links, int switches) {
  fault::RandomFaultOptions opt;
  opt.link_failures = links;
  opt.switch_failures = switches;
  opt.window_begin = 1 * kMillisecond;
  opt.window_end = 5 * kMillisecond;
  opt.repair_after = 3 * kMillisecond;
  return opt;
}

TEST_F(FaultTest, RandomPlanIsDeterministicInSeed) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto opt = window_opt(3, 0);
  const auto a = fault::FaultPlan::random(x.topo, opt, 11);
  const auto b = fault::FaultPlan::random(x.topo, opt, 11);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events().size(), 6u);  // 3 downs + 3 ups
  a.validate(x.topo);
  const auto c = fault::FaultPlan::random(x.topo, opt, 12);
  EXPECT_NE(a, c);
}

TEST_F(FaultTest, RandomPlanPairsEveryFailureWithItsRecovery) {
  const auto ft = topo::fat_tree(4);
  const auto plan = fault::FaultPlan::random(ft.topo, window_opt(2, 1), 5);
  int downs = 0;
  int ups = 0;
  for (const auto& e : plan.events()) {
    (fault::is_down_kind(e.kind) ? downs : ups)++;
    EXPECT_GE(e.time, 1 * kMillisecond);
    EXPECT_LE(e.time, 5 * kMillisecond + 3 * kMillisecond);
  }
  EXPECT_EQ(downs, 3);
  EXPECT_EQ(ups, 3);
  // The fat-tree has serverless aggregation/core switches, so the switch
  // victim is honored even without allow_tor_failures.
  EXPECT_TRUE(std::any_of(plan.events().begin(), plan.events().end(),
                          [](const fault::FaultEvent& e) {
                            return e.kind == fault::FaultKind::kSwitchDown;
                          }));
}

TEST_F(FaultTest, RandomPlanSkipsTorsUnlessAllowed) {
  // Every Xpander switch hosts servers: no switch may fail by default.
  const auto x = topo::xpander(3, 4, 2, 1);
  auto opt = window_opt(0, 2);
  const auto none = fault::FaultPlan::random(x.topo, opt, 9);
  EXPECT_TRUE(none.empty());
  opt.allow_tor_failures = true;
  const auto some = fault::FaultPlan::random(x.topo, opt, 9);
  EXPECT_EQ(some.events().size(), 4u);
}

TEST_F(FaultTest, SerializeParseRoundTrip) {
  const auto ft = topo::fat_tree(4);
  const auto plan = fault::FaultPlan::random(ft.topo, window_opt(2, 1), 42);
  ASSERT_FALSE(plan.empty());
  const auto back = fault::FaultPlan::parse(plan.serialize());
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(plan, *back);
  back->validate(ft.topo);
}

TEST_F(FaultTest, ParseRejectsGarbageAndUnsortedInput) {
  const auto truncated = fault::FaultPlan::parse("12 link-down");
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(truncated.status().message().find("line 1"), std::string::npos);

  const auto unknown = fault::FaultPlan::parse("12 meteor-strike 3");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(unknown.status().message().find("meteor-strike"),
            std::string::npos);

  const auto unsorted =
      fault::FaultPlan::parse("2000 link-down 1\n1000 link-up 1\n");
  ASSERT_FALSE(unsorted.ok());
  EXPECT_EQ(unsorted.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(unsorted.status().message().find("line 2"), std::string::npos);
}

TEST_F(FaultTest, CheckAgainstNamesFirstOffendingEventIndex) {
  const auto x = topo::xpander(3, 3, 2, 1);
  const fault::FaultPlan plan({{100, fault::FaultKind::kLinkDown, 0},
                               {200, fault::FaultKind::kLinkDown, 1 << 20}});
  const auto st = plan.check_against(x.topo);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput);
  EXPECT_NE(st.message().find("event 1"), std::string::npos);
  EXPECT_TRUE(plan.check_against(x.topo).code() == StatusCode::kInvalidInput);
  const fault::FaultPlan good({{100, fault::FaultKind::kLinkDown, 0}});
  EXPECT_TRUE(good.check_against(x.topo).ok());
}

TEST_F(FaultTest, LoadFaultPlanValidatesAgainstTargetTopology) {
  const auto x = topo::xpander(3, 3, 2, 1);
  const auto plan = fault::FaultPlan::random(x.topo, window_opt(2, 0), 7);
  const std::string path = ::testing::TempDir() + "/flexnets_plan_test.txt";
  ASSERT_TRUE(fault::save_fault_plan(path, plan).ok());

  const auto back = fault::load_fault_plan(path, &x.topo);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(plan, *back);

  // The same plan against a tiny topology must be rejected at load time
  // with the first offending event index.
  const auto tiny = topo::xpander(1, 2, 1, 1);
  const auto mismatched = fault::load_fault_plan(path, &tiny.topo);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(mismatched.status().message().find("event "), std::string::npos);
  std::remove(path.c_str());

  const auto missing = fault::load_fault_plan("/nonexistent/dir/p.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidInput);
}

TEST_F(FaultTest, ValidateRejectsDoubleDownAndBadIds) {
  const auto x = topo::xpander(3, 3, 2, 1);
  const fault::FaultPlan twice({{100, fault::FaultKind::kLinkDown, 0},
                                {200, fault::FaultKind::kLinkDown, 0}});
  EXPECT_THROW(twice.validate(x.topo), CheckFailure);
  const fault::FaultPlan up_first({{100, fault::FaultKind::kSwitchUp, 2}});
  EXPECT_THROW(up_first.validate(x.topo), CheckFailure);
  const fault::FaultPlan bad_id(
      {{100, fault::FaultKind::kLinkDown, 1 << 20}});
  EXPECT_THROW(bad_id.validate(x.topo), CheckFailure);
}

TEST_F(FaultTest, LiveStateTracksEdgesSwitchesAndSurvivors) {
  const auto x = topo::xpander(3, 3, 2, 1);
  fault::LiveState live(x.topo);
  EXPECT_FALSE(live.any_fault());

  live.apply({0, fault::FaultKind::kLinkDown, 0});
  EXPECT_FALSE(live.edge_live(0));
  EXPECT_EQ(live.surviving_graph().num_edges(), x.topo.g.num_edges() - 1);

  const auto victim = x.topo.g.edge(5).a;
  live.apply({0, fault::FaultKind::kSwitchDown, victim});
  EXPECT_FALSE(live.switch_up(victim));
  for (const auto e : x.topo.g.incident(victim)) {
    EXPECT_FALSE(live.edge_live(e));
  }
  const auto tors = live.live_tors(x.topo);
  EXPECT_EQ(std::count(tors.begin(), tors.end(), victim), 0);

  // Redundant transitions are plan bugs, not no-ops.
  EXPECT_THROW(live.apply({0, fault::FaultKind::kLinkDown, 0}), CheckFailure);
  live.apply({0, fault::FaultKind::kLinkUp, 0});
  live.apply({0, fault::FaultKind::kSwitchUp, victim});
  EXPECT_FALSE(live.any_fault());
}

TEST_F(FaultTest, RepairAuditAcceptsRepairedAndRejectsStaleTables) {
  const auto x = topo::xpander(3, 4, 2, 1);
  fault::LiveState live(x.topo);
  live.apply({0, fault::FaultKind::kLinkDown, 0});
  live.apply({0, fault::FaultKind::kLinkDown, 7});
  const auto tors = live.live_tors(x.topo);

  const auto repaired =
      routing::EcmpTable::build(live.surviving_graph(), tors);
  EXPECT_NO_THROW(fault::audit_repaired_tables(x.topo, live, repaired, tors));

  // Tables built on the pre-fault graph still route across the dead links.
  const auto stale = routing::EcmpTable::build(x.topo.g, tors);
  EXPECT_THROW(fault::audit_repaired_tables(x.topo, live, stale, tors),
               CheckFailure);
}

// ---------------------------------------------------------------------------
// Gray failures: plan generation, text round-trip, the gray/binary state
// machine, LiveState bookkeeping, and the detector.

fault::RandomFaultOptions gray_opt() {
  fault::RandomFaultOptions opt;
  opt.window_begin = 1 * kMillisecond;
  opt.window_end = 5 * kMillisecond;
  opt.repair_after = 3 * kMillisecond;
  opt.lossy_links = 2;
  opt.loss_prob = 0.02;
  opt.degraded_links = 1;
  opt.degrade_fraction = 0.5;
  opt.flapping_links = 1;
  opt.flap_period = 1 * kMillisecond;
  opt.flap_duty = 0.5;
  return opt;
}

TEST_F(FaultTest, GrayRandomPlanDrawsDistinctVictimsWithRestores) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto plan = fault::FaultPlan::random(x.topo, gray_opt(), 21);
  EXPECT_TRUE(plan.has_gray());
  plan.validate(x.topo);
  int lossy = 0;
  int degrade = 0;
  int flap = 0;
  int restore = 0;
  std::vector<std::int32_t> victims;
  for (const auto& e : plan.events()) {
    switch (e.kind) {
      case fault::FaultKind::kLinkLossy:
        ++lossy;
        victims.push_back(e.id);
        EXPECT_EQ(e.p1, 0.02);
        break;
      case fault::FaultKind::kLinkDegrade:
        ++degrade;
        victims.push_back(e.id);
        EXPECT_EQ(e.p1, 0.5);
        break;
      case fault::FaultKind::kLinkFlap:
        ++flap;
        victims.push_back(e.id);
        EXPECT_EQ(e.p1, static_cast<double>(1 * kMillisecond));
        EXPECT_EQ(e.p2, 0.5);
        break;
      case fault::FaultKind::kLinkRestore:
        ++restore;
        break;
      default:
        ADD_FAILURE() << "unexpected binary event in a gray-only plan";
    }
  }
  EXPECT_EQ(lossy, 2);
  EXPECT_EQ(degrade, 1);
  EXPECT_EQ(flap, 1);
  EXPECT_EQ(restore, 4);  // every gray victim recovers
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(std::adjacent_find(victims.begin(), victims.end()),
            victims.end());  // victims distinct across classes

  // Deterministic in the seed.
  EXPECT_EQ(plan, fault::FaultPlan::random(x.topo, gray_opt(), 21));
  EXPECT_NE(plan, fault::FaultPlan::random(x.topo, gray_opt(), 22));
}

TEST_F(FaultTest, GrayZeroBudgetsLeaveBinaryDrawsBitIdentical) {
  // Gray victims draw AFTER the binary victims from the same shuffled
  // list, so a plan with gray budgets on top of binary failures keeps the
  // exact binary events of the gray-free plan for the same seed.
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto binary_only = fault::FaultPlan::random(x.topo, window_opt(3, 0), 8);
  auto opt = window_opt(3, 0);
  opt.lossy_links = 2;
  const auto mixed = fault::FaultPlan::random(x.topo, opt, 8);
  std::vector<fault::FaultEvent> binary_part;
  for (const auto& e : mixed.events()) {
    if (!fault::is_gray_kind(e.kind) &&
        e.kind != fault::FaultKind::kLinkRestore) {
      binary_part.push_back(e);
    }
  }
  EXPECT_EQ(binary_part, binary_only.events());
  EXPECT_EQ(mixed.events().size(), binary_only.events().size() + 4);
}

TEST_F(FaultTest, GraySerializeParseRoundTrip) {
  const auto x = topo::xpander(3, 4, 2, 1);
  auto opt = gray_opt();
  opt.link_failures = 1;  // mix a binary failure into the text form
  opt.loss_prob = 0.12345678901234567;  // must survive the round trip
  const auto plan = fault::FaultPlan::random(x.topo, opt, 21);
  ASSERT_TRUE(plan.has_gray());
  const auto text = plan.serialize();
  EXPECT_NE(text.find("link-lossy"), std::string::npos);
  EXPECT_NE(text.find("link-flap"), std::string::npos);
  EXPECT_NE(text.find("link-restore"), std::string::npos);
  const auto back = fault::FaultPlan::parse(text);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(plan, *back);
  back->validate(x.topo);
}

TEST_F(FaultTest, ParseRejectsOutOfRangeGrayParameters) {
  const auto lossy = fault::FaultPlan::parse("10 link-lossy 0 1.0");
  ASSERT_FALSE(lossy.ok());
  EXPECT_EQ(lossy.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(lossy.status().message().find("drop probability"),
            std::string::npos);

  const auto degrade = fault::FaultPlan::parse("10 link-degrade 0 -0.25");
  ASSERT_FALSE(degrade.ok());
  EXPECT_NE(degrade.status().message().find("degrade fraction"),
            std::string::npos);

  const auto flap = fault::FaultPlan::parse("10 link-flap 0 0 0.5");
  ASSERT_FALSE(flap.ok());
  EXPECT_NE(flap.status().message().find("flap period"), std::string::npos);

  const auto truncated = fault::FaultPlan::parse("10 link-flap 0 1000");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("link-flap needs"),
            std::string::npos);
}

TEST_F(FaultTest, CheckAgainstEnforcesGrayStateMachine) {
  const auto x = topo::xpander(3, 3, 2, 1);
  using FK = fault::FaultKind;

  // Gray fault on a link that is down.
  const fault::FaultPlan on_down({{100, FK::kLinkDown, 0},
                                  {200, FK::kLinkLossy, 0, 0.1}});
  auto st = on_down.check_against(x.topo);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("event 1"), std::string::npos);
  EXPECT_NE(st.message().find("while it is down"), std::string::npos);

  // Second gray fault without a restore in between.
  const fault::FaultPlan twice({{100, FK::kLinkLossy, 0, 0.1},
                                {200, FK::kLinkDegrade, 0, 0.5}});
  st = twice.check_against(x.topo);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("already gray"), std::string::npos);

  // Restore of a link that was never gray.
  const fault::FaultPlan bad_restore({{100, FK::kLinkRestore, 0}});
  st = bad_restore.check_against(x.topo);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not gray"), std::string::npos);

  // Binary transition of a gray link: the state machines must not tangle.
  const fault::FaultPlan tangle({{100, FK::kLinkFlap, 0, 1000.0, 0.5},
                                 {200, FK::kLinkDown, 0}});
  st = tangle.check_against(x.topo);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("restore it first"), std::string::npos);

  // The legal sequence: gray, restore, then a binary failure.
  const fault::FaultPlan good({{100, FK::kLinkLossy, 0, 0.1},
                               {200, FK::kLinkRestore, 0},
                               {300, FK::kLinkDown, 0}});
  EXPECT_TRUE(good.check_against(x.topo).ok());
}

TEST_F(FaultTest, LiveStateTracksGrayStateAndDegradeZeroCutsTheEdge) {
  const auto x = topo::xpander(3, 3, 2, 1);
  fault::LiveState live(x.topo);
  using FK = fault::FaultKind;

  live.apply({0, FK::kLinkLossy, 0, 0.1});
  EXPECT_TRUE(live.any_gray());
  EXPECT_TRUE(live.edge_gray(0));
  EXPECT_TRUE(live.edge_live(0));  // lossy links stay in the topology
  EXPECT_EQ(live.gray(0).mode, fault::GrayMode::kLossy);
  EXPECT_EQ(live.gray(0).p1, 0.1);

  // A degrade to rate 0 is a link down in everything but name.
  live.apply({0, FK::kLinkDegrade, 1, 0.0});
  EXPECT_FALSE(live.edge_live(1));
  EXPECT_TRUE(live.edge_gray(1));
  EXPECT_EQ(live.surviving_graph().num_edges(), x.topo.g.num_edges() - 1);

  live.apply({0, FK::kLinkRestore, 0});
  live.apply({0, FK::kLinkRestore, 1});
  EXPECT_FALSE(live.any_gray());
  EXPECT_FALSE(live.any_fault());
  EXPECT_TRUE(live.edge_live(1));

  // Gray on an unhealthy link is a plan bug, not a no-op.
  live.apply({0, FK::kLinkDown, 2});
  EXPECT_THROW(live.apply({0, FK::kLinkLossy, 2, 0.1}), CheckFailure);
  EXPECT_THROW(live.apply({0, FK::kLinkRestore, 3}), CheckFailure);
}

TEST_F(FaultTest, DetectorExcludesOnlyWhileSurvivorsStayConnected) {
  const auto x = topo::xpander(3, 4, 2, 1);
  fault::LiveState live(x.topo);
  fault::GrayDetector det(x.topo);
  EXPECT_EQ(det.detected_count(), 0);

  live.apply({0, fault::FaultKind::kLinkLossy, 0, 0.1});
  det.mark_detected(0);
  EXPECT_TRUE(det.detected(0));
  EXPECT_EQ(det.detected_count(), 1);
  EXPECT_EQ(det.detections(), 1);

  const auto excl = det.excludable(live);
  ASSERT_EQ(excl.size(), static_cast<std::size_t>(x.topo.g.num_edges()));
  EXPECT_EQ(excl[0], 1);  // an expander survives one exclusion easily

  // The pruned graph drops exactly the excluded edge.
  const auto pruned = fault::pruned_graph(x.topo, live, excl);
  EXPECT_EQ(pruned.num_edges(), x.topo.g.num_edges() - 1);

  // Detecting every incident link of a switch must NOT exclude them all:
  // greedy exclusion stops when the live switches would disconnect.
  fault::LiveState live2(x.topo);
  fault::GrayDetector det2(x.topo);
  const auto victim = x.topo.g.edge(0).a;
  int marked = 0;
  for (const auto e : x.topo.g.incident(victim)) {
    live2.apply({0, fault::FaultKind::kLinkLossy, e, 0.1});
    det2.mark_detected(e);
    ++marked;
  }
  ASSERT_GT(marked, 1);
  const auto excl2 = det2.excludable(live2);
  int excluded = 0;
  for (const auto e : x.topo.g.incident(victim)) excluded += excl2[e];
  EXPECT_LT(excluded, marked);  // at least one stays to keep connectivity
  EXPECT_GT(excluded, 0);

  // clear() returns the link to the undetected pool (used on restore).
  det.clear(0);
  EXPECT_FALSE(det.detected(0));
  EXPECT_EQ(det.detected_count(), 0);
  EXPECT_EQ(det.detections(), 1);  // the cumulative count survives
}

// ---------------------------------------------------------------------------
// Engines under live faults.

class FaultedEnginesTest : public FaultTest {
 protected:
  FaultedEnginesTest() : x_(topo::xpander(3, 3, 2, 1)) {}

  std::vector<workload::FlowSpec> crossing_flows() const {
    // One flow per server to the diagonally opposite server: plenty of
    // traffic crossing whichever links the plan kills. 4MB at 10G shared
    // links keeps every flow alive well past the 1-5ms failure window.
    std::vector<workload::FlowSpec> flows;
    const int n = x_.topo.num_servers();
    for (int s = 0; s < n; ++s) {
      flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 4 * kMB});
    }
    return flows;
  }

  AuditScope audit_{true};
  topo::Xpander x_;
};

TEST_F(FaultedEnginesTest, PacketDigestIdenticalAcrossSameSeedFaultedRuns) {
  const auto plan =
      fault::FaultPlan::random(x_.topo, window_opt(2, 0), 3);
  ASSERT_FALSE(plan.empty());
  auto run_once = [&]() {
    sim::NetworkConfig cfg;
    cfg.faults = &plan;
    cfg.control_plane_delay = 200 * kMicrosecond;
    cfg.seed = 7;
    sim::PacketNetwork net(x_.topo, cfg);
    net.run(crossing_flows());
    const auto stats = net.fault_stats();
    EXPECT_GT(stats.repairs, 0u);
    EXPECT_EQ(stats.post_repair_blackholes, 0u);
    return net.simulator().event_digest();
  };
  const auto d1 = run_once();
  const auto d2 = run_once();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, Digest{}.value());
}

TEST_F(FaultedEnginesTest, PacketFlowsCompleteThroughFailureAndRecovery) {
  const auto plan =
      fault::FaultPlan::random(x_.topo, window_opt(2, 0), 3);
  sim::NetworkConfig cfg;
  cfg.faults = &plan;
  cfg.seed = 7;
  metrics::ThroughputTimeline timeline(kMillisecond);
  sim::PacketNetwork net(x_.topo, cfg);
  net.set_timeline(&timeline);
  net.run(crossing_flows());
  const auto n = static_cast<std::int32_t>(net.engine().num_flows());
  for (std::int32_t id = 0; id < n; ++id) {
    EXPECT_TRUE(net.engine().flow(id).completed) << "flow " << id;
  }
  const auto stats = net.fault_stats();
  EXPECT_EQ(stats.aborted_flows, 0u);  // connectivity-preserving plan
  EXPECT_EQ(stats.post_repair_blackholes, 0u);
  EXPECT_GT(stats.repairs, 0u);
  const auto series = timeline.series(10 * kMillisecond);
  EXPECT_GT(metrics::mean_gbps(series, 0, 10 * kMillisecond), 0.0);
}

TEST_F(FaultedEnginesTest, PermanentTorFailureAbortsDoomedFlows) {
  // Kill one ToR (every Xpander switch is one) with no recovery: flows
  // touching its servers must be aborted, everyone else completes.
  const auto victim = x_.topo.tors().front();
  const fault::FaultPlan plan(
      {{2 * kMillisecond, fault::FaultKind::kSwitchDown, victim}});
  sim::NetworkConfig cfg;
  cfg.faults = &plan;
  cfg.seed = 7;
  sim::PacketNetwork net(x_.topo, cfg);
  net.run(crossing_flows(), 100 * kMillisecond);
  const auto stats = net.fault_stats();
  EXPECT_GT(stats.aborted_flows, 0u);
  EXPECT_EQ(stats.post_repair_blackholes, 0u);
  int incomplete = 0;
  const auto n = static_cast<std::int32_t>(net.engine().num_flows());
  for (std::int32_t id = 0; id < n; ++id) {
    const auto& f = net.engine().flow(id);
    if (!f.completed) {
      ++incomplete;
      const bool touches_victim = f.route.src_tor == victim ||
                                  f.route.dst_tor == victim;
      EXPECT_TRUE(touches_victim || f.aborted) << "flow " << id;
    }
  }
  EXPECT_GT(incomplete, 0);
}

TEST_F(FaultedEnginesTest, FlowsimDigestIdenticalAcrossSameSeedFaultedRuns) {
  const auto plan =
      fault::FaultPlan::random(x_.topo, window_opt(2, 0), 3);
  auto run_once = [&]() {
    flowsim::FlowSimConfig cfg;
    cfg.faults = &plan;
    cfg.control_plane_delay = 200 * kMicrosecond;
    cfg.seed = 5;
    flowsim::FlowLevelSimulator sim(x_.topo, cfg);
    const auto recs = sim.run(crossing_flows());
    for (const auto& r : recs) EXPECT_TRUE(r.completed());
    return sim.last_run_digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(FaultedEnginesTest, FlowsimFaultEpochsChangeCompletionTimes) {
  flowsim::FlowSimConfig cfg;
  cfg.seed = 5;
  flowsim::FlowLevelSimulator clean(x_.topo, cfg);
  const auto baseline = clean.run(crossing_flows());

  const auto plan =
      fault::FaultPlan::random(x_.topo, window_opt(3, 0), 3);
  cfg.faults = &plan;
  flowsim::FlowLevelSimulator faulted_sim(x_.topo, cfg);
  const auto faulted = faulted_sim.run(crossing_flows());

  ASSERT_EQ(baseline.size(), faulted.size());
  bool any_later = false;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_TRUE(faulted[i].completed());
    if (faulted[i].end > baseline[i].end) any_later = true;
  }
  EXPECT_TRUE(any_later);  // stalls must cost someone time
}

TEST_F(FaultedEnginesTest, FlowsimPermanentTorFailureLeavesFlowsIncomplete) {
  const auto victim = x_.topo.tors().front();
  const fault::FaultPlan plan(
      {{1 * kMillisecond, fault::FaultKind::kSwitchDown, victim}});
  flowsim::FlowSimConfig cfg;
  cfg.faults = &plan;
  cfg.seed = 5;
  flowsim::FlowLevelSimulator sim(x_.topo, cfg);
  const auto recs = sim.run(crossing_flows());
  const auto flows = crossing_flows();
  int incomplete = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!recs[i].completed()) {
      ++incomplete;
      EXPECT_TRUE(tor_of(x_.topo, flows[i].src_server) == victim ||
                  tor_of(x_.topo, flows[i].dst_server) == victim);
    }
  }
  EXPECT_GT(incomplete, 0);
}

}  // namespace
}  // namespace flexnets
