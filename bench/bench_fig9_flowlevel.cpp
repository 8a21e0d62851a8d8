// Fig 9 at the paper's full topology scale, via the flow-level simulator:
// fat-tree k=16 (1024 servers) vs Xpander 216x16p (1080 servers), A2A(x) at
// 167 flows/s per active server. The packet-level bench_fig9 runs these
// parameters only under REPRO_FULL=1 (hours); the fluid engine reproduces
// the same crossover shape by default in minutes on one core.
//
// Takes no flags; any argument exits 2, naming it.
#include <cstdio>

#include "flowsim/flow_sim.hpp"
#include "metrics/fct_tracker.hpp"
#include "topo/fat_tree.hpp"
#include "topo/xpander.hpp"
#include "util.hpp"
#include "workload/flow_size.hpp"

using namespace flexnets;

namespace {

metrics::FctSummary run_fluid(const topo::Topology& t,
                              flowsim::FlowRouting mode,
                              const workload::PairDistribution& pairs,
                              double rate_per_server, TimeNs w0, TimeNs w1,
                              TimeNs tail) {
  int active_servers = 0;
  for (const auto r : pairs.active_racks()) {
    active_servers += t.servers_per_switch()[r];
  }
  const double rate = rate_per_server * active_servers;
  const auto sizes = workload::pfabric_web_search();
  const int num_flows =
      static_cast<int>(rate * to_seconds(w1 + tail));
  const auto flows = workload::generate_flows(pairs, *sizes, rate,
                                              num_flows, /*seed=*/13);
  flowsim::FlowSimConfig cfg;
  cfg.routing = mode;
  flowsim::FlowLevelSimulator sim(t, cfg);
  const auto records = sim.run(flows);
  return metrics::summarize(records, w0, w1, workload::kShortFlowThreshold);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, "bench_fig9_flowlevel", {}, {},
                     [](const std::string&, const std::string&) {});
  bench::banner("Fig 9 (flow-level engine, paper-scale topologies)",
                "A2A(x), 167 flows/s/server at larger-than-packet-default scale");

  const bool full = core::repro_full();
  // Default: a half-scale rendition (k=12 fat-tree, 432 servers, vs an
  // Xpander-class expander with 2/3 the switches) that finishes in a
  // couple of minutes on one core. REPRO_FULL=1: the paper's k=16 /
  // 216x16p topologies with the full [0.5s, 1.5s) measurement window.
  const auto ft = full ? topo::fat_tree(16) : topo::fat_tree(12);
  const auto xp_topo = full ? topo::xpander(11, 18, 5, /*seed=*/1).topo
                            : topo::xpander_for(120, 8, 4, /*seed=*/1);
  const TimeNs w0 = full ? 500 * kMillisecond : 30 * kMillisecond;
  const TimeNs w1 = full ? 1500 * kMillisecond : 90 * kMillisecond;
  const TimeNs tail = full ? 500 * kMillisecond : 30 * kMillisecond;
  std::printf("fat-tree k=%d (%d servers) vs %s (%d servers)\n\n",
              full ? 16 : 12, ft.topo.num_servers(), xp_topo.name.c_str(),
              xp_topo.num_servers());

  const std::vector<double> fractions =
      full ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
           : std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0};

  TextTable t({"fraction_active", "fat-tree_avgFCT_ms",
               "xpander-ECMP_avgFCT_ms", "xpander-HYB_avgFCT_ms",
               "fat-tree_tput_G", "xpander-HYB_tput_G"});
  for (const double x : fractions) {
    const auto ft_pairs = workload::all_to_all_pairs(
        ft.topo, workload::first_fraction_racks(ft.topo, x));
    const auto xp_pairs = workload::all_to_all_pairs(
        xp_topo, workload::random_fraction_racks(xp_topo, x, 5));

    const auto ftr = run_fluid(ft.topo, flowsim::FlowRouting::kEcmpSampled,
                               *ft_pairs, 167.0, w0, w1, tail);
    const auto xer = run_fluid(xp_topo, flowsim::FlowRouting::kEcmpSampled,
                               *xp_pairs, 167.0, w0, w1, tail);
    const auto xhr = run_fluid(xp_topo, flowsim::FlowRouting::kHyb, *xp_pairs,
                               167.0, w0, w1, tail);
    t.add_row({TextTable::fmt(x, 2), TextTable::fmt(ftr.avg_fct_ms, 3),
               TextTable::fmt(xer.avg_fct_ms, 3),
               TextTable::fmt(xhr.avg_fct_ms, 3),
               TextTable::fmt(ftr.avg_long_tput_gbps, 2),
               TextTable::fmt(xhr.avg_long_tput_gbps, 2)});
  }
  t.print();
  std::printf(
      "\nExpected shape (paper Fig 9, fluid rendition): the 33%%-cheaper\n"
      "Xpander tracks the full-bandwidth fat-tree while the active\n"
      "fraction is small-to-moderate and falls behind only at large x.\n");
  return 0;
}
