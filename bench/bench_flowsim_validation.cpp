// Fidelity check: the flow-level max-min simulator vs the packet-level
// DCTCP simulator on identical flow sets. The flow-level model has no
// headers, no slow start, no RTOs -- FCTs are optimistic -- but it must
// preserve orderings (who wins) and rough factors; this bench quantifies
// the gap and the speedup that justifies using it at paper scale.
//
// Takes no flags; any argument exits 2, naming it.
#include <chrono>
#include <cstdio>

#include "flowsim/flow_sim.hpp"
#include "metrics/fct_tracker.hpp"
#include "util.hpp"
#include "workload/flow_size.hpp"

using namespace flexnets;

namespace {

struct Result {
  metrics::FctSummary fct;
  double wall_sec = 0.0;
};

Result run_packet(const topo::Topology& t, routing::RoutingMode mode,
                  const std::vector<workload::FlowSpec>& flows,
                  const core::PacketSimOptions& opts) {
  sim::NetworkConfig cfg = opts.net;
  cfg.routing.mode = mode;
  const auto t0 = std::chrono::steady_clock::now();
  sim::PacketNetwork net(t, cfg);
  net.run(flows, opts.hard_stop);
  Result r;
  r.wall_sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  std::vector<metrics::FlowRecord> records;
  for (std::size_t i = 0; i < net.engine().num_flows(); ++i) {
    const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
    records.push_back({f.start_time, f.completion_time, f.size});
  }
  r.fct = metrics::summarize(records, opts.window_begin, opts.window_end,
                             workload::kShortFlowThreshold);
  return r;
}

Result run_fluid(const topo::Topology& t, flowsim::FlowRouting mode,
                 const std::vector<workload::FlowSpec>& flows,
                 const core::PacketSimOptions& opts) {
  flowsim::FlowSimConfig cfg;
  cfg.routing = mode;
  const auto t0 = std::chrono::steady_clock::now();
  flowsim::FlowLevelSimulator sim(t, cfg);
  const auto records = sim.run(flows);
  Result r;
  r.wall_sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  r.fct = metrics::summarize(records, opts.window_begin, opts.window_end,
                             workload::kShortFlowThreshold);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, "bench_flowsim_validation", {}, {},
                     [](const std::string&, const std::string&) {});
  bench::banner("Flow-level simulator validation",
                "max-min fluid model vs packet-level DCTCP, same flow sets");

  const bool full = core::repro_full();
  auto topos = bench::section64_topologies(full);
  const auto& xp = topos.xpander;
  const auto opts = bench::default_packet_options(full);
  const auto sizes = workload::pfabric_web_search();

  const struct Case {
    const char* label;
    double fraction;
    bool permute;
  } cases[] = {
      {"A2A(0.5)", 0.5, false},
      {"Permute(0.5)", 0.5, true},
      {"A2A(1.0)", 1.0, false},
  };

  TextTable t({"workload", "scheme", "packet_avgFCT_ms", "fluid_avgFCT_ms",
               "packet_tput_G", "fluid_tput_G", "speedup"});
  for (const auto& c : cases) {
    const auto active = workload::random_fraction_racks(xp, c.fraction, 5);
    std::unique_ptr<workload::PairDistribution> pairs;
    if (c.permute) {
      pairs = workload::permutation_pairs(xp, active, 21);
    } else {
      pairs = workload::all_to_all_pairs(xp, active);
    }
    int active_servers = 0;
    for (const auto r : pairs->active_racks()) {
      active_servers += xp.servers_per_switch()[r];
    }
    const double rate = 150.0 * active_servers;
    const int num_flows = static_cast<int>(
        rate * to_seconds(opts.window_end + opts.arrival_tail));
    const auto flows =
        workload::generate_flows(*pairs, *sizes, rate, num_flows, 13);

    const struct {
      const char* label;
      routing::RoutingMode pkt;
      flowsim::FlowRouting fluid;
    } schemes[] = {
        {"ECMP", routing::RoutingMode::kEcmp,
         flowsim::FlowRouting::kEcmpSampled},
        {"HYB", routing::RoutingMode::kHyb, flowsim::FlowRouting::kHyb},
    };
    for (const auto& s : schemes) {
      const auto p = run_packet(xp, s.pkt, flows, opts);
      const auto f = run_fluid(xp, s.fluid, flows, opts);
      t.add_row({c.label, s.label, TextTable::fmt(p.fct.avg_fct_ms, 3),
                 TextTable::fmt(f.fct.avg_fct_ms, 3),
                 TextTable::fmt(p.fct.avg_long_tput_gbps, 2),
                 TextTable::fmt(f.fct.avg_long_tput_gbps, 2),
                 TextTable::fmt(p.wall_sec / std::max(1e-9, f.wall_sec), 0) +
                     "x"});
    }
  }
  t.print();
  std::printf(
      "\nReading: fluid FCTs are optimistic (no headers/slow-start/loss)\n"
      "but preserve the scheme ordering per workload; the speedup column\n"
      "is why the flow-level engine exists (paper-scale sweeps on one\n"
      "core, see bench_fig9_flowlevel).\n");
  return 0;
}
