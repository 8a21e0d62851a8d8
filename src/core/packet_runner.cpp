#include <cmath>

#include "common/check.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "sim/pdes/runner.hpp"

namespace flexnets::core {

std::vector<workload::FlowSpec> packet_experiment_flows(
    const workload::PairDistribution& pairs,
    const workload::FlowSizeDistribution& sizes, const PacketSimOptions& opts) {
  // Flows arrive from t = 0 through window_end + tail.
  const double horizon_sec = to_seconds(opts.window_end + opts.arrival_tail);
  const int num_flows = std::max(
      1, static_cast<int>(std::llround(opts.arrival_rate * horizon_sec)));
  return workload::generate_flows(pairs, sizes, opts.arrival_rate, num_flows,
                                  opts.seed);
}

PacketResult run_packet_experiment(const topo::Topology& topo,
                                   const workload::PairDistribution& pairs,
                                   const workload::FlowSizeDistribution& sizes,
                                   const PacketSimOptions& opts) {
  const auto flows = packet_experiment_flows(pairs, sizes, opts);

  sim::PacketNetwork net(topo, opts.net);

  PacketResult result;
  const int threads = resolve_threads(opts.threads);
  const bool parallel = threads > 1;
  if (parallel) {
    FLEXNETS_CHECK(opts.max_events == 0,
                   "event budgets require the serial engine (threads = 1)");
    sim::pdes::RunnerConfig pcfg;
    pcfg.threads = threads;
    const auto stats = sim::pdes::run_parallel(net, flows, pcfg,
                                               opts.hard_stop);
    result.events = stats.events;
  } else {
    net.simulator().set_event_budget(opts.max_events);
    net.run(flows, opts.hard_stop);
    result.truncated = net.simulator().budget_exhausted();
    if (result.truncated) {
      result.status = budget_exhausted_error(
          "packet simulation truncated after ",
          net.simulator().events_processed(), " events (budget ",
          opts.max_events, "); metrics cover the completed prefix");
    }
    result.events = net.simulator().events_processed();
  }
  result.flows_total = flows.size();
  std::vector<metrics::FlowRecord> records;
  records.reserve(flows.size());
  // Flows are pre-opened in spec order (flow id == spec index). A flow
  // whose start event lies beyond hard_stop (or a budget truncation)
  // never started: report its scheduled arrival and count it incomplete
  // rather than silently dropping it from the summary.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& f = net.engine().flow(static_cast<std::int32_t>(i));
    if (f.start_time >= 0) {
      records.push_back({f.start_time, f.completion_time, f.size});
    } else {
      records.push_back({flows[i].start, -1, flows[i].size});
    }
  }
  result.fct = metrics::summarize(records, opts.window_begin, opts.window_end,
                                  workload::kShortFlowThreshold);
  result.drops = net.total_drops();
  result.ecn_marks = net.total_ecn_marks();
  return result;
}

}  // namespace flexnets::core
