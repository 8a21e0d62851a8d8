// Instantiates the packet simulator for a topology: a pair of links per
// network edge, an access link pair per server, ECMP tables, the source
// router, and the DCTCP engine. Dispatches all simulator events.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/detector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/live_state.hpp"
#include "metrics/degradation.hpp"
#include "routing/routing_table.hpp"
#include "routing/strategy.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "topo/topology.hpp"
#include "transport/dctcp.hpp"
#include "workload/arrivals.hpp"

namespace flexnets::sim {

struct NetworkConfig {
  LinkConfig network_link;  // switch <-> switch
  LinkConfig server_link;   // host <-> ToR (rate may be set very high to
                            // model the "server bottleneck ignored" setting
                            // of the ProjecToR comparison, paper 6.6)
  transport::DctcpConfig transport;
  routing::SourceRouteConfig routing;
  std::uint64_t seed = 1;

  // Live fault injection: when non-null, the plan's events fire during
  // run(); each one triggers a routing repair (ECMP/KSP rebuild on the
  // surviving graph, VLB via re-selection over live ToRs)
  // control_plane_delay later. The plan must outlive the network.
  const fault::FaultPlan* faults = nullptr;
  TimeNs control_plane_delay = 500 * kMicrosecond;

  // Gray-failure handling (engaged when the plan has gray kinds). The
  // control plane learns of a gray link only after detect_threshold
  // observed losses on one of its direction links (or, for a flap, its
  // first down transition), detect_latency later; a detection triggers
  // the usual versioned repair. When route_around_gray is set the
  // repaired tables exclude detected links (as long as the live switches
  // stay connected); undetected gray links always stay in the tables.
  fault::DetectorConfig detector;
  bool route_around_gray = true;
};

class PacketNetwork final : public transport::TransportEnv,
                            private GrayLossObserver {
 public:
  PacketNetwork(const topo::Topology& topo, const NetworkConfig& cfg);

  // Schedules all flows and runs the simulation to completion (or `until`).
  void run(const std::vector<workload::FlowSpec>& flows,
           TimeNs until = Simulator::kMaxTime);

  // TransportEnv implementation. During event dispatch these act on the
  // *active* Sched (the serial simulator, or the dispatching logical
  // process of the parallel engine); outside dispatch they fall back to
  // the serial simulator.
  [[nodiscard]] TimeNs now() const override;
  void inject(std::int32_t host, const Packet& pkt) override;
  void set_timer(std::int32_t flow, TimeNs at, std::uint64_t gen) override;
  void flow_completed(std::int32_t flow, TimeNs when) override;

  [[nodiscard]] transport::DctcpEngine& engine() { return *engine_; }
  [[nodiscard]] const transport::DctcpEngine& engine() const { return *engine_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

  [[nodiscard]] std::int32_t host_node(int server) const {
    return num_switches_ + server;
  }
  // The link from `from_node` to `to_node`; asserts if absent.
  [[nodiscard]] const Link& link_between(std::int32_t from_node,
                                         std::int32_t to_node) const;

  // Aggregate link statistics (drops, ECN marks) for diagnostics.
  [[nodiscard]] std::uint64_t total_drops() const;
  [[nodiscard]] std::uint64_t total_ecn_marks() const;

  // Per-class link utilization over [0, horizon): mean and max fraction of
  // each link's capacity consumed, split into network (switch-switch) and
  // access (host-switch) links. Useful for diagnosing where a routing
  // scheme concentrates load.
  struct UtilizationSummary {
    double network_mean = 0.0;
    double network_max = 0.0;
    double access_mean = 0.0;
    double access_max = 0.0;
  };
  [[nodiscard]] UtilizationSummary utilization(TimeNs horizon) const;

  // Overrides how kFlowStart events open flows (default: one DCTCP flow via
  // the engine). Used to route flow arrivals through an alternative
  // transport, e.g. transport::MptcpEngine.
  using FlowOpener = std::function<void(const workload::FlowSpec&)>;
  void set_flow_opener(FlowOpener opener) { flow_opener_ = std::move(opener); }

  [[nodiscard]] graph::NodeId tor_of_server(int server) const {
    return tor_of_server_[server];
  }

  // Graceful-degradation accounting (meaningful when cfg.faults != null).
  // "Blackhole" drops are the bad kind: a packet discarded for lack of a
  // route even though its destination is live and reachable -- after the
  // control plane reconverges there must be none. "Expelled" covers
  // packets lost to the failure itself: flushed queues, enqueues onto a
  // down link, arrivals at a dead switch, and drops toward destinations
  // that are dead or partitioned away.
  struct FaultStats {
    std::uint64_t blackhole_drops = 0;
    // Blackholes while the control plane was reconverged (every fault
    // already repaired). The repair audit proves this stays 0.
    std::uint64_t post_repair_blackholes = 0;
    std::uint64_t expelled_packets = 0;
    std::uint64_t aborted_flows = 0;  // endpoints mutually unreachable
    std::uint64_t repairs = 0;
    TimeNs last_fault_time = -1;
    TimeNs last_repair_time = -1;
    // Gray accounting: packets hash-dropped by lossy links or admission-
    // dropped by flapping links (never blackholes — the route existed),
    // gray links the control plane detected, and the peak number of
    // detected links any single repair managed to exclude from the
    // tables (peak, not last: the final repair runs post-restore).
    std::uint64_t gray_loss_drops = 0;
    std::uint64_t detections = 0;
    std::uint64_t gray_links_excluded = 0;
  };
  [[nodiscard]] FaultStats fault_stats() const;
  [[nodiscard]] const fault::LiveState& live_state() const { return live_; }
  [[nodiscard]] const fault::GrayDetector& gray_detector() const {
    return detector_;
  }

  // When set, every data packet delivered to a host NIC is recorded
  // (delivered-throughput timeline). Must outlive run().
  void set_timeline(metrics::ThroughputTimeline* t) { timeline_ = t; }
  // When set, every gray loss (hash drop / flap admission drop) is
  // recorded as a loss timeline. Serial-only, like the throughput
  // timeline. Must outlive run().
  void set_loss_timeline(metrics::CountTimeline* t) { loss_timeline_ = t; }

  // --- Seams for the conservative parallel engine (sim/pdes/) ----------
  // The parallel runner drives this network without the serial simulator
  // loop: pdes_begin performs run()'s prologue (flow pre-opening,
  // pending-spec registration) and rejects the serial-only features;
  // every event is then dispatched through pdes_dispatch under the
  // runner's own Sched implementations; pdes_end is run()'s epilogue.
  void pdes_begin(const std::vector<workload::FlowSpec>& flows);
  void pdes_end() { pending_flows_ = nullptr; }
  void pdes_dispatch(Sched& s, Event& e) { handle(s, e); }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }
  [[nodiscard]] std::int32_t num_switches() const { return num_switches_; }
  [[nodiscard]] std::int32_t num_nodes() const {
    return num_switches_ + num_hosts_;
  }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const Link& link(std::int32_t id) const {
    return *links_[static_cast<std::size_t>(id)];
  }

 private:
  void handle(Sched& s, Event& e);
  // The Sched the current event is being dispatched under (thread-local),
  // or the serial simulator outside dispatch.
  [[nodiscard]] Sched& active_sched() const;
  void open_flows(const std::vector<workload::FlowSpec>& flows);
  Link& out_link(std::int32_t from_node, std::int32_t to_node);
  // Routes the arrived packet onward, advancing its route state in place.
  void forward_at_switch(graph::NodeId sw, Packet& pkt);
  void apply_fault(const fault::FaultEvent& fe);
  void repair_routing();
  void sync_links_of_edge(graph::EdgeId e);
  void sync_links_of_switch(graph::NodeId sw);
  void sync_gray_of_edge(const fault::FaultEvent& fe);
  void handle_detect(Sched& s, graph::EdgeId e);
  // GrayLossObserver: runs on whatever logical process dispatched the
  // dropping link's event; may only schedule through `sched`.
  void on_gray_loss(Sched& sched, std::int32_t link_id,
                    std::uint64_t cumulative_losses) override;
  void drop_unroutable(graph::NodeId sw, const Packet& pkt);
  void abort_doomed_flows();
  [[nodiscard]] bool pair_connected(graph::NodeId a, graph::NodeId b) const;

  const topo::Topology& topo_;
  NetworkConfig cfg_;
  std::int32_t num_switches_;
  std::int32_t num_hosts_;

  Simulator sim_;
  std::vector<std::unique_ptr<Link>> links_;
  // Per node: (neighbor node, link id) pairs, sorted by neighbor.
  std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> out_;

  routing::EcmpTable ecmp_;
  std::unique_ptr<routing::KspTable> ksp_;
  std::unique_ptr<routing::SourceRouter> router_;
  std::unique_ptr<routing::SwitchForwarder> forwarder_;
  std::unique_ptr<transport::DctcpEngine> engine_;

  const std::vector<workload::FlowSpec>* pending_flows_ = nullptr;
  std::vector<graph::NodeId> tor_of_server_;
  FlowOpener flow_opener_;

  // Fault-injection state (engaged iff cfg_.faults != nullptr).
  fault::LiveState live_;
  graph::Graph live_graph_;  // owns the graph rebuilt tables reference
  std::vector<int> comp_;    // component id per switch, tracks live_
  std::uint64_t fault_version_ = 0;
  // The four drop/abort counters are bumped from whatever logical process
  // dispatches the triggering event, so under the parallel engine they
  // need to be atomic; a relaxed sum is deterministic because each
  // increment happens exactly once regardless of order. The repair
  // bookkeeping fields are only written in serial contexts (fault/repair
  // timestamps execute single-threaded).
  struct MutableFaultStats {
    std::atomic<std::uint64_t> blackhole_drops{0};
    std::atomic<std::uint64_t> post_repair_blackholes{0};
    std::atomic<std::uint64_t> expelled_packets{0};
    std::atomic<std::uint64_t> aborted_flows{0};
    std::uint64_t repairs = 0;
    TimeNs last_fault_time = -1;
    TimeNs last_repair_time = -1;
  };
  MutableFaultStats stats_;
  metrics::ThroughputTimeline* timeline_ = nullptr;
  metrics::CountTimeline* loss_timeline_ = nullptr;

  // Gray-failure state (engaged iff cfg_.faults != nullptr).
  fault::GrayDetector detector_;
  std::uint64_t gray_salt_ = 0;  // feeds the per-link loss hash
  // Per *link* (not edge): the monotone oseq counter behind kDetect
  // stable keys, and whether this link already has a detection in flight
  // for the current gray episode. Each link's entries are only touched
  // from its owning logical process (or from serial fault timestamps), so
  // like Link::sched_seq_ they need no synchronization and stay identical
  // between engines.
  std::vector<std::uint64_t> detect_seq_;
  std::vector<char> detect_armed_;
  // Excluded-edge mask the last repair routed around (empty: none), and
  // the peak exclusion count across all repairs (see FaultStats).
  std::vector<char> excluded_;
  std::uint64_t gray_links_excluded_ = 0;
};

}  // namespace flexnets::sim
