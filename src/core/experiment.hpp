// Top-level experiment API: one call per paper experiment style.
//
//  - Packet experiments (paper section 6): topology + pair distribution +
//    flow-size distribution + Poisson arrival rate -> FCT metrics.
//  - Fluid experiments (paper section 5): topology + TM family -> per-server
//    throughput as the active-server fraction varies.
//
// Benchmarks and examples should need nothing below this header plus the
// topology generators and workload distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "metrics/fct_tracker.hpp"
#include "sim/network.hpp"
#include "topo/topology.hpp"
#include "workload/arrivals.hpp"
#include "workload/flow_size.hpp"
#include "workload/pairs.hpp"

namespace flexnets::core {

struct PacketSimOptions {
  double arrival_rate = 1000.0;  // aggregate flow starts per second
  TimeNs window_begin = 100 * kMillisecond;
  TimeNs window_end = 300 * kMillisecond;
  // Flows keep arriving for `tail` past the window so in-window flows do not
  // see an artificially idle network while finishing.
  TimeNs arrival_tail = 50 * kMillisecond;
  // Safety valve: stop simulating at this time even if flows are pending
  // (incomplete flows are then reported in the summary).
  TimeNs hard_stop = 60 * kSecond;
  // Cooperative event budget: end the run cleanly after this many simulator
  // events (0 = unlimited). Event counts, not wall time, so truncation is
  // same-seed deterministic; the result is then flagged `truncated` with a
  // kBudgetExhausted status and still-summarizable partial metrics.
  std::uint64_t max_events = 0;
  sim::NetworkConfig net;
  std::uint64_t seed = 1;
  // Worker threads for the packet engine. 1 (the default) runs the serial
  // simulator; > 1 runs the conservative parallel engine (sim/pdes/),
  // which reproduces the serial event order -- and therefore the serial
  // metrics and digest -- bit for bit. 0 resolves from FLEXNETS_THREADS /
  // the hardware. Incompatible with max_events (the budget is a property
  // of the serial loop).
  int threads = 1;
};

struct PacketResult {
  metrics::FctSummary fct;
  std::uint64_t drops = 0;
  std::uint64_t ecn_marks = 0;
  std::uint64_t events = 0;
  std::uint64_t flows_total = 0;
  // True when max_events ended the run before the queue drained; the FCT
  // summary then covers only flows completed within the budget.
  bool truncated = false;
  Status status;  // kBudgetExhausted when truncated
};

// The flow list run_packet_experiment simulates: llround(arrival_rate x
// (window_end + arrival_tail)) Poisson arrivals, at least one, drawn from
// opts.seed. Harnesses that open the flows through another transport
// (MPTCP) take their flows from here, so they simulate the same ones.
std::vector<workload::FlowSpec> packet_experiment_flows(
    const workload::PairDistribution& pairs,
    const workload::FlowSizeDistribution& sizes, const PacketSimOptions& opts);

PacketResult run_packet_experiment(const topo::Topology& topo,
                                   const workload::PairDistribution& pairs,
                                   const workload::FlowSizeDistribution& sizes,
                                   const PacketSimOptions& opts);

// True when the environment asks for paper-scale parameters
// (REPRO_FULL=1); benchmarks default to scaled-down instances otherwise.
bool repro_full();

}  // namespace flexnets::core
