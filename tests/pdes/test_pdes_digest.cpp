// Differential determinism suite for the conservative PDES engine
// (sim/pdes/): the parallel engine must reproduce the serial engine's
// splitmix64 event digest bit-for-bit for every thread count, every LP
// count, and every partition seed -- with and without live faults.
//
// Every test runs under AuditScope(true) so both engines fold their
// dispatch streams into digests and the PDES runner's internal order
// audits (epoch horizon, strict key order in the merged stream) are armed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/degradation.hpp"
#include "sim/network.hpp"
#include "sim/pdes/partition.hpp"
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

// One flow per server to the diagonally opposite server plus a staggered
// reverse burst: enough traffic that every LP owns senders and receivers.
std::vector<workload::FlowSpec> crossing_flows(const topo::Topology& t) {
  std::vector<workload::FlowSpec> flows;
  const int n = t.num_servers();
  for (int s = 0; s < n; ++s) {
    flows.push_back({s * kMicrosecond, s, (s + n / 2) % n, 256 * kKB});
    flows.push_back({2 * kMillisecond + s * kMicrosecond, (s + n / 3) % n, s,
                     64 * kKB});
  }
  return flows;
}

fault::FaultPlan make_plan(const topo::Topology& t) {
  fault::RandomFaultOptions opt;
  opt.link_failures = 2;
  opt.switch_failures = 0;
  opt.window_begin = 1 * kMillisecond;
  opt.window_end = 4 * kMillisecond;
  opt.repair_after = 2 * kMillisecond;
  return fault::FaultPlan::random(t, opt, 11);
}

struct RefRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

struct DigestCase {
  TopoKind topo;
  int threads;
  bool faults;
  // Explicit, zeroed padding: gtest prints a case as its raw bytes and
  // CTest's test discovery appends that printout to each test's name, so
  // uninitialized padding made a name change from build to build. (A
  // PrintTo would also fix that, but rename all twenty-four cases.)
  std::uint8_t padding[3] = {};
};

std::string case_name(const ::testing::TestParamInfo<DigestCase>& info) {
  return std::string(topo_name(info.param.topo)) + "_t" +
         std::to_string(info.param.threads) +
         (info.param.faults ? "_faults" : "_clean");
}

class PdesDigestTest : public ::testing::TestWithParam<DigestCase> {
 protected:
  sim::NetworkConfig config(const fault::FaultPlan* plan) const {
    sim::NetworkConfig cfg;
    cfg.routing.mode = routing::RoutingMode::kHyb;
    cfg.seed = 7;
    cfg.faults = plan;
    if (plan != nullptr) cfg.control_plane_delay = 200 * kMicrosecond;
    return cfg;
  }

  RefRun run_serial(const topo::Topology& t, const fault::FaultPlan* plan,
                    const std::vector<workload::FlowSpec>& flows) const {
    sim::PacketNetwork net(t, config(plan));
    net.run(flows);
    return {net.simulator().event_digest(),
            net.simulator().events_processed()};
  }

  CheckPolicyScope policy_{CheckPolicy::kThrow};
  AuditScope audit_{true};
};

TEST_P(PdesDigestTest, ParallelDigestMatchesSerial) {
  const auto& p = GetParam();
  const auto t = make_topo(p.topo);
  const auto plan = make_plan(t);
  const auto* fp = p.faults ? &plan : nullptr;
  const auto flows = crossing_flows(t);

  const RefRun ref = run_serial(t, fp, flows);
  ASSERT_GT(ref.events, 0u);
  ASSERT_NE(ref.digest, Digest{}.value());

  sim::PacketNetwork net(t, config(fp));
  sim::pdes::RunnerConfig pcfg;
  pcfg.threads = p.threads;
  const auto stats = sim::pdes::run_parallel(net, flows, pcfg);

  EXPECT_EQ(stats.event_digest, ref.digest);
  EXPECT_EQ(stats.events, ref.events);
  EXPECT_EQ(stats.threads, p.threads);
  EXPECT_GT(stats.epochs, 0u);
  if (p.faults) {
    // Every fault/repair timestamp must have run at a serial barrier.
    EXPECT_GE(stats.serial_timestamps, plan.events().size());
    EXPECT_GT(net.fault_stats().repairs, 0u);
  }
  for (std::size_t i = 0; i < net.engine().num_flows(); ++i) {
    EXPECT_TRUE(net.engine().flow(static_cast<std::int32_t>(i)).completed)
        << "flow " << i;
  }
}

std::vector<DigestCase> digest_cases() {
  std::vector<DigestCase> cases;
  for (const auto topo :
       {TopoKind::kFatTree, TopoKind::kXpander, TopoKind::kJellyfish}) {
    for (const int threads : {1, 2, 4, 8}) {
      for (const bool faults : {false, true}) {
        cases.push_back({topo, threads, faults});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SerialVsParallel, PdesDigestTest,
                         ::testing::ValuesIn(digest_cases()), case_name);

// ---------------------------------------------------------------------------
// Partition independence: the digest must not depend on how the topology is
// cut into LPs -- neither the LP count nor the partitioner's seed.

class PdesPartitionTest : public ::testing::Test {
 protected:
  CheckPolicyScope policy_{CheckPolicy::kThrow};
  AuditScope audit_{true};
};

TEST_F(PdesPartitionTest, DigestIndependentOfLpCountAndPartitionSeed) {
  const auto t = topo::xpander(3, 4, 2, 1).topo;
  const auto flows = crossing_flows(t);

  auto run_once = [&](int num_lps, std::uint64_t part_seed) {
    sim::NetworkConfig cfg;
    cfg.routing.mode = routing::RoutingMode::kHyb;
    cfg.seed = 7;
    sim::PacketNetwork net(t, cfg);
    sim::pdes::RunnerConfig pcfg;
    pcfg.threads = 4;
    pcfg.num_lps = num_lps;
    pcfg.partition_seed = part_seed;
    const auto stats = sim::pdes::run_parallel(net, flows, pcfg);
    EXPECT_EQ(stats.lps, num_lps);
    return stats.event_digest;
  };

  const auto ref = run_once(2, 1);
  ASSERT_NE(ref, Digest{}.value());
  EXPECT_EQ(run_once(3, 1), ref);
  EXPECT_EQ(run_once(5, 1), ref);
  EXPECT_EQ(run_once(3, 99), ref);
  EXPECT_EQ(run_once(5, 123456), ref);
}

TEST_F(PdesPartitionTest, PartitionCoversEveryNodeAndColocatesHosts) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto& t = x.topo;
  for (const int num_lps : {1, 2, 3, 7}) {
    const auto part = sim::pdes::partition_topology(t, num_lps, 5);
    EXPECT_EQ(part.num_lps, num_lps);
    ASSERT_EQ(part.lp_of_node.size(),
              static_cast<std::size_t>(t.num_switches() + t.num_servers()));
    for (const int lp : part.lp_of_node) {
      EXPECT_GE(lp, 0);
      EXPECT_LT(lp, num_lps);
    }
    // Hosts live with their ToR.
    int server = 0;
    for (graph::NodeId sw = 0; sw < t.num_switches(); ++sw) {
      for (int i = 0; i < t.servers_per_switch()[sw]; ++i, ++server) {
        EXPECT_EQ(part.lp_of(t.num_switches() + server), part.lp_of(sw));
      }
    }
    // Same inputs -> same partition.
    const auto again = sim::pdes::partition_topology(t, num_lps, 5);
    EXPECT_EQ(again.lp_of_node, part.lp_of_node);
  }
}

TEST_F(PdesPartitionTest, RejectsSerialOnlyFeaturesAndEventBudgets) {
  const auto t = topo::xpander(3, 3, 2, 1).topo;
  sim::NetworkConfig cfg;
  cfg.seed = 7;
  metrics::ThroughputTimeline timeline(kMillisecond);
  sim::PacketNetwork net(t, cfg);
  net.set_timeline(&timeline);
  const std::vector<workload::FlowSpec> flows{{0, 0, 1, 64 * kKB}};
  EXPECT_THROW(sim::pdes::run_parallel(net, flows, {}), CheckFailure);

  // KSP fills its path cache lazily and unlocked, so LP threads would
  // race on it: refused before any thread starts.
  cfg.routing.mode = routing::RoutingMode::kKsp;
  sim::PacketNetwork ksp_net(t, cfg);
  sim::pdes::RunnerConfig pcfg;
  pcfg.threads = 2;
  EXPECT_THROW(sim::pdes::run_parallel(ksp_net, flows, pcfg), CheckFailure);
}

}  // namespace
}  // namespace flexnets
