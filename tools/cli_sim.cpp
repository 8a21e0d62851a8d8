#include <cstdio>

#include "cli_commands.hpp"
#include "core/experiment.hpp"
#include "flowsim/flow_sim.hpp"
#include "workload/flow_size.hpp"
#include "workload/trace.hpp"

namespace flexnets::cli {

namespace {

// Runs the flow-level (max-min fluid) engine on the same workload the
// packet path would use; triggered by --engine=flow.
int run_flow_level(const topo::Topology& t,
                   const workload::PairDistribution& pairs,
                   const workload::FlowSizeDistribution& sizes,
                   const std::string& routing, double rate_per_server,
                   TimeNs warmup, TimeNs window, std::uint64_t seed,
                   const std::string& trace_out) {
  flowsim::FlowSimConfig cfg;
  cfg.seed = seed;
  if (routing == "ecmp") {
    cfg.routing = flowsim::FlowRouting::kEcmpSampled;
  } else if (routing == "ecmp-split") {
    cfg.routing = flowsim::FlowRouting::kEcmpSplit;
  } else if (routing == "vlb") {
    cfg.routing = flowsim::FlowRouting::kVlb;
  } else if (routing == "hyb") {
    cfg.routing = flowsim::FlowRouting::kHyb;
  } else {
    std::fprintf(stderr,
                 "error: --engine=flow supports "
                 "--routing=ecmp|ecmp-split|vlb|hyb\n");
    return 1;
  }
  int active_servers = 0;
  for (const auto r : pairs.active_racks()) {
    active_servers += t.servers_per_switch()[r];
  }
  const double rate = rate_per_server * active_servers;
  const int num_flows = std::max(
      1, static_cast<int>(rate * to_seconds(warmup + window + window / 2)));
  const auto flows =
      workload::generate_flows(pairs, sizes, rate, num_flows, seed);
  if (!trace_out.empty() && !workload::save_trace(trace_out, flows)) {
    std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  flowsim::FlowLevelSimulator sim(t, cfg);
  const auto records = sim.run(flows);
  const auto s = metrics::summarize(records, warmup, warmup + window,
                                    workload::kShortFlowThreshold);
  std::printf("\n[flow-level engine] flows measured: %d\n", s.measured_flows);
  std::printf("avg FCT:                   %.3f ms\n", s.avg_fct_ms);
  std::printf("p99 short-flow FCT:        %.3f ms\n", s.p99_short_fct_ms);
  std::printf("avg long-flow throughput:  %.3f Gbps\n",
              s.avg_long_tput_gbps);
  return 0;
}

}  // namespace

int cmd_sim(const Args& args) {
  const auto t = build_topology(args);
  if (!t) return 1;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // Workload.
  std::unique_ptr<workload::PairDistribution> pairs;
  const auto wl = args.get("workload", "a2a");
  const double fraction = args.get_double("fraction", 1.0);
  if (fraction <= 0.0 || fraction > 1.0) {
    std::fprintf(stderr, "error: --fraction not in (0, 1]\n");
    return 1;
  }
  if (wl == "a2a") {
    pairs = workload::all_to_all_pairs(
        *t, workload::random_fraction_racks(*t, fraction, seed));
  } else if (wl == "permute") {
    pairs = workload::permutation_pairs(
        *t, workload::random_fraction_racks(*t, fraction, seed), seed);
  } else if (wl == "skew") {
    pairs = workload::skew_pairs(*t, args.get_double("theta", 0.04),
                                 args.get_double("phi", 0.77), seed);
  } else if (wl == "two-rack") {
    if (t->num_network_links() == 0) {
      std::fprintf(stderr, "error: topology has no links\n");
      return 1;
    }
    const auto e = t->g.edge(0);
    const int per_rack =
        std::min(t->servers_per_switch()[e.a], t->servers_per_switch()[e.b]);
    if (per_rack == 0) {
      std::fprintf(stderr, "error: adjacent racks host no servers\n");
      return 1;
    }
    pairs = workload::two_rack_pairs(*t, e.a, e.b, per_rack);
  } else {
    std::fprintf(stderr, "error: unknown --workload '%s'\n", wl.c_str());
    return 1;
  }

  const auto sz = args.get("sizes", "pfabric");
  std::unique_ptr<workload::FlowSizeDistribution> sizes;
  if (sz == "pfabric") {
    sizes = workload::pfabric_web_search();
  } else if (sz == "pareto") {
    sizes = workload::pareto_hull();
  } else {
    std::fprintf(stderr, "error: unknown --sizes '%s'\n", sz.c_str());
    return 1;
  }

  // Timing/load flags shared by both engines.
  const double rate = args.get_double("rate", 100.0);
  const auto warmup = args.get_int("warmup-ms", 20) * kMillisecond;
  const auto window = args.get_int("window-ms", 30) * kMillisecond;
  if (rate <= 0.0 || warmup < 0 || window <= 0) {
    std::fprintf(stderr, "error: bad --rate/--warmup-ms/--window-ms\n");
    return 1;
  }

  const auto engine = args.get("engine", "packet");
  const auto routing = args.get("routing", "hyb");
  if (engine == "flow") {
    return run_flow_level(*t, *pairs, *sizes, routing, rate, warmup, window,
                          seed, args.get("trace-out", ""));
  }
  if (engine != "packet") {
    std::fprintf(stderr, "error: unknown --engine '%s'\n", engine.c_str());
    return 1;
  }

  // Routing (packet engine).
  core::PacketSimOptions opts;
  if (routing == "ecmp") {
    opts.net.routing.mode = routing::RoutingMode::kEcmp;
  } else if (routing == "vlb") {
    opts.net.routing.mode = routing::RoutingMode::kVlb;
  } else if (routing == "hyb") {
    opts.net.routing.mode = routing::RoutingMode::kHyb;
  } else if (routing == "hybecn") {
    opts.net.routing.mode = routing::RoutingMode::kHybEcn;
  } else if (routing == "ksp") {
    opts.net.routing.mode = routing::RoutingMode::kKsp;
  } else if (routing == "spray") {
    opts.net.routing.mode = routing::RoutingMode::kSpray;
  } else {
    std::fprintf(stderr, "error: unknown --routing '%s'\n", routing.c_str());
    return 1;
  }
  const auto policy = args.get("policy", "hash");
  if (policy == "leastqueue") {
    opts.net.routing.switch_policy = routing::SwitchPolicy::kLeastQueue;
  } else if (policy != "hash") {
    std::fprintf(stderr, "error: unknown --policy '%s'\n", policy.c_str());
    return 1;
  }

  int active_servers = 0;
  for (const auto r : pairs->active_racks()) {
    active_servers += t->servers_per_switch()[r];
  }
  opts.arrival_rate = rate * active_servers;
  opts.window_begin = warmup;
  opts.window_end = warmup + window;
  opts.arrival_tail = window / 2;
  opts.seed = seed;

  std::printf(
      "topology: %s | workload: %s | sizes: %s | routing: %s/%s\n"
      "active servers: %d | aggregate rate: %.0f flows/s | window: "
      "[%lld, %lld) ms\n",
      t->name.c_str(), wl.c_str(), sz.c_str(), routing.c_str(),
      policy.c_str(), active_servers, opts.arrival_rate,
      static_cast<long long>(opts.window_begin / kMillisecond),
      static_cast<long long>(opts.window_end / kMillisecond));

  const auto r = core::run_packet_experiment(*t, *pairs, *sizes, opts);
  std::printf("\nflows measured:            %d (incomplete: %d)\n",
              r.fct.measured_flows, r.fct.incomplete_flows);
  std::printf("avg FCT:                   %.3f ms\n", r.fct.avg_fct_ms);
  std::printf("p99 FCT:                   %.3f ms\n", r.fct.p99_fct_ms);
  std::printf("p99 short-flow FCT:        %.3f ms\n",
              r.fct.p99_short_fct_ms);
  std::printf("avg long-flow throughput:  %.3f Gbps\n",
              r.fct.avg_long_tput_gbps);
  std::printf("events: %llu | drops: %llu | ECN marks: %llu\n",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.drops),
              static_cast<unsigned long long>(r.ecn_marks));
  return 0;
}

}  // namespace flexnets::cli
