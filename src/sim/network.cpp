#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/check.hpp"
#include "fault/audit.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::sim {

namespace {
// The Sched the calling thread is currently dispatching an event under.
// Thread-local because under the parallel engine several logical
// processes dispatch concurrently, each with its own Sched.
thread_local Sched* tls_sched = nullptr;

class SchedScope {
 public:
  explicit SchedScope(Sched* s) : prev_(tls_sched) { tls_sched = s; }
  ~SchedScope() { tls_sched = prev_; }
  SchedScope(const SchedScope&) = delete;
  SchedScope& operator=(const SchedScope&) = delete;

 private:
  Sched* prev_;
};
}  // namespace

PacketNetwork::PacketNetwork(const topo::Topology& topo,
                             const NetworkConfig& cfg)
    : topo_(topo),
      cfg_(cfg),
      num_switches_(topo.num_switches()),
      num_hosts_(topo.num_servers()) {
  out_.resize(static_cast<std::size_t>(num_switches_ + num_hosts_));

  auto add_link = [&](std::int32_t from, std::int32_t to,
                      const LinkConfig& lc) {
    const auto id = static_cast<std::int32_t>(links_.size());
    links_.push_back(std::make_unique<Link>(id, from, to, lc));
    out_[from].emplace_back(to, id);
  };

  for (const auto& e : topo_.g.edges()) {
    add_link(e.a, e.b, cfg_.network_link);
    add_link(e.b, e.a, cfg_.network_link);
  }
  tor_of_server_.reserve(static_cast<std::size_t>(num_hosts_));
  int server = 0;
  for (graph::NodeId sw = 0; sw < num_switches_; ++sw) {
    for (int i = 0; i < topo_.servers_per_switch()[sw]; ++i, ++server) {
      const std::int32_t host = host_node(server);
      add_link(host, sw, cfg_.server_link);
      add_link(sw, host, cfg_.server_link);
      tor_of_server_.push_back(sw);
    }
  }
  for (auto& v : out_) std::sort(v.begin(), v.end());

  // Routing: ECMP next hops toward every ToR (VLB vias are ToRs too).
  const auto tors = topo_.tors();
  ecmp_ = routing::EcmpTable::build(topo_.g, tors);
  if (cfg_.routing.mode == routing::RoutingMode::kKsp) {
    ksp_ = std::make_unique<routing::KspTable>(topo_.g, cfg_.routing.ksp_k);
  }
  router_ = std::make_unique<routing::SourceRouter>(
      cfg_.routing, tors, splitmix64(cfg_.seed ^ 0x70e7e5ULL), ksp_.get());
  forwarder_ = std::make_unique<routing::SwitchForwarder>(
      ecmp_, splitmix64(cfg_.seed ^ 0xec3b5aULL));
  engine_ = std::make_unique<transport::DctcpEngine>(cfg_.transport, *this,
                                                     *router_);

  if (cfg_.faults != nullptr) {
    cfg_.faults->validate(topo_);
    live_ = fault::LiveState(topo_);
    comp_ = graph::connected_components(topo_.g).id;
    detector_ = fault::GrayDetector(topo_);
    gray_salt_ = splitmix64(cfg_.seed ^ 0x6ea551ULL);
    detect_seq_.assign(links_.size(), 0);
    detect_armed_.assign(links_.size(), 0);
    if (cfg_.faults->has_gray()) {
      // Only network links can turn gray; server links never do.
      for (graph::EdgeId e = 0; e < topo_.g.num_edges(); ++e) {
        links_[static_cast<std::size_t>(2 * e)]->set_gray_observer(this);
        links_[static_cast<std::size_t>(2 * e + 1)]->set_gray_observer(this);
      }
    }
  }

  // Sizes the event queue's far heap (sim/event_queue.hpp) from a first
  // guess at the live event population: one dequeue and one arrival per
  // link plus one timer per host. It is not a bound: superseded
  // retransmission timers stay queued until they fire, so on the
  // 216-switch Xpander (10,152 reserved) the queue holds about 9,200
  // events, 7,200 of them in the far heap, and peaks at 12,163.
  sim_.reserve_events(links_.size() * 2 + static_cast<std::size_t>(num_hosts_));

  sim_.set_handler([this](const Event& e) { handle(sim_, e); });
}

Link& PacketNetwork::out_link(std::int32_t from_node, std::int32_t to_node) {
  const auto& v = out_[from_node];
  const auto it = std::lower_bound(
      v.begin(), v.end(), std::pair<std::int32_t, std::int32_t>{to_node, -1});
  assert(it != v.end() && it->first == to_node && "no such link");
  if (cfg_.faults != nullptr) {
    // Prefer a live link among parallels to the same neighbor; fall back to
    // the first (down) one, whose enqueue counts the packet as lost.
    for (auto jt = it; jt != v.end() && jt->first == to_node; ++jt) {
      Link& l = *links_[static_cast<std::size_t>(jt->second)];
      if (l.is_up()) return l;
    }
  }
  return *links_[static_cast<std::size_t>(it->second)];
}

const Link& PacketNetwork::link_between(std::int32_t from_node,
                                        std::int32_t to_node) const {
  return const_cast<PacketNetwork*>(this)->out_link(from_node, to_node);
}

Sched& PacketNetwork::active_sched() const {
  return tls_sched != nullptr ? *tls_sched
                              : const_cast<Simulator&>(sim_);
}

TimeNs PacketNetwork::now() const { return active_sched().now(); }

void PacketNetwork::inject(std::int32_t host, Packet pkt) {
  // A host has exactly one uplink (to its ToR).
  assert(out_[host].size() == 1);
  links_[static_cast<std::size_t>(out_[host][0].second)]->enqueue(
      active_sched(), std::move(pkt));
}

void PacketNetwork::set_timer(std::int32_t flow, TimeNs at,
                              std::uint64_t gen) {
  // The timer generation is already the flow's private monotone counter,
  // so it doubles as the stable key's oseq.
  active_sched().schedule(at, EventType::kTransportTimer, flow, gen,
                          {owner::flow_timer(flow), gen});
}

void PacketNetwork::flow_completed(std::int32_t, TimeNs) {
  // Completion times live in the engine's flow records; nothing to do.
}

void PacketNetwork::forward_at_switch(graph::NodeId sw, Packet pkt) {
  auto hops = forwarder_->candidates(sw, pkt);
  if (hops.empty() && sw != pkt.dst_tor &&
      pkt.via_tor != graph::kInvalidNode) {
    // The bounce point became unreachable after a repair; route the rest of
    // the way directly toward the destination.
    pkt.via_tor = graph::kInvalidNode;
    hops = forwarder_->candidates(sw, pkt);
  }
  if (hops.empty()) {
    if (sw == pkt.dst_tor) {
      out_link(sw, pkt.dst_host).enqueue(active_sched(), std::move(pkt));
    } else {
      drop_unroutable(sw, pkt);
    }
    return;
  }
  graph::NodeId nh;
  if (cfg_.routing.switch_policy == routing::SwitchPolicy::kLeastQueue &&
      hops.size() > 1) {
    // DRILL/CONGA-flavored local adaptivity: pick the least-occupied output
    // queue; break ties by the deterministic hash.
    nh = forwarder_->choose_by_hash(sw, pkt, hops);
    Bytes best = out_link(sw, nh).queued_bytes();
    for (const auto h : hops) {
      const Bytes q = out_link(sw, h).queued_bytes();
      if (q < best) {
        best = q;
        nh = h;
      }
    }
  } else {
    nh = forwarder_->choose_by_hash(sw, pkt, hops);
  }
  out_link(sw, nh).enqueue(active_sched(), std::move(pkt));
}

void PacketNetwork::handle(Sched& s, const Event& e) {
  const SchedScope scope(&s);
  switch (e.type) {
    case EventType::kLinkDequeue:
      links_[static_cast<std::size_t>(e.a)]->on_dequeue(s);
      break;
    case EventType::kPacketArrive:
      if (e.a < num_switches_) {
        if (cfg_.faults != nullptr && !live_.switch_up(e.a)) {
          // In-flight arrival at a dead switch.
          stats_.expelled_packets.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        forward_at_switch(e.a, e.pkt);
      } else {
        if (timeline_ != nullptr && !e.pkt.is_ack) {
          timeline_->record(s.now(), e.pkt.payload);
        }
        engine_->on_packet(e.pkt);
      }
      break;
    case EventType::kTransportTimer:
      engine_->on_timer(e.a, e.b);
      break;
    case EventType::kFlowStart: {
      assert(pending_flows_);
      const auto& spec = (*pending_flows_)[static_cast<std::size_t>(e.a)];
      if (flow_opener_) {
        flow_opener_(spec);
        break;
      }
      // Flows were pre-opened in spec order (open_flows), so the event's
      // spec index *is* the flow id.
      const auto id = e.a;
      if (cfg_.faults != nullptr &&
          !pair_connected(tor_of_server_[spec.src_server],
                          tor_of_server_[spec.dst_server])) {
        // The endpoints cannot currently talk: abandon immediately.
        engine_->abort_flow(id);
        stats_.aborted_flows.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      engine_->start(id);
      break;
    }
    case EventType::kFault:
      apply_fault(cfg_.faults->events()[static_cast<std::size_t>(e.a)]);
      break;
    case EventType::kRepair:
      // Coalesced: only the repair scheduled by the latest fault rebuilds.
      if (e.b == fault_version_) repair_routing();
      break;
    case EventType::kDetect:
      handle_detect(s, e.a);
      break;
  }
}

void PacketNetwork::open_flows(const std::vector<workload::FlowSpec>& flows) {
  if (flow_opener_) return;  // the opener creates its own flows at start
  // Pre-open every flow in spec order, before any event runs. This fixes
  // flow id == spec index for both engines and keeps the engine's flow
  // vector from reallocating mid-run -- under the parallel engine,
  // concurrent logical processes hold references into it. Opening is
  // side-effect-free (no events, no clock reads); a flow only becomes
  // visible to the simulation at its kFlowStart event.
  FLEXNETS_CHECK(engine_->num_flows() == 0,
                 "run() may only be invoked once per PacketNetwork");
  for (const auto& spec : flows) {
    engine_->open_flow(host_node(spec.src_server), host_node(spec.dst_server),
                       tor_of_server_[spec.src_server],
                       tor_of_server_[spec.dst_server], spec.size);
  }
}

void PacketNetwork::run(const std::vector<workload::FlowSpec>& flows,
                        TimeNs until) {
  pending_flows_ = &flows;
  open_flows(flows);
  // Every flow start (and fault event) is scheduled up front.
  sim_.reserve_events(flows.size() +
                      (cfg_.faults != nullptr ? cfg_.faults->events().size()
                                              : 0));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    sim_.schedule(flows[i].start, EventType::kFlowStart,
                  static_cast<std::int32_t>(i), 0,
                  {owner::kFlowStartRoot, i});
  }
  if (cfg_.faults != nullptr) {
    const auto& ev = cfg_.faults->events();
    for (std::size_t i = 0; i < ev.size(); ++i) {
      sim_.schedule(ev[i].time, EventType::kFault,
                    static_cast<std::int32_t>(i), 0, {owner::kFaultRoot, i});
    }
  }
  sim_.run(until);
  pending_flows_ = nullptr;
}

void PacketNetwork::pdes_begin(const std::vector<workload::FlowSpec>& flows) {
  FLEXNETS_CHECK(!flow_opener_,
                 "pdes: custom flow openers are serial-only (MPTCP)");
  FLEXNETS_CHECK(timeline_ == nullptr,
                 "pdes: throughput timelines are serial-only");
  FLEXNETS_CHECK(loss_timeline_ == nullptr,
                 "pdes: loss timelines are serial-only");
  FLEXNETS_CHECK(cfg_.routing.mode != routing::RoutingMode::kKsp,
                 "pdes: KSP routing is serial-only (KspTable::paths fills its "
                 "path cache on first use without a lock, a data race "
                 "between LP threads)");
  pending_flows_ = &flows;
  open_flows(flows);
}

void PacketNetwork::apply_fault(const fault::FaultEvent& fe) {
  Sched& s = active_sched();
  // Does the control plane see this event *now*? Binary faults: always.
  // Gray onsets: only a degrade to rate 0 (exactly a kLinkDown). A
  // restore: only if the link had left the surviving graph or had been
  // detected — an undetected lossy/flapping link heals as silently as it
  // broke.
  bool structural = true;
  if (fault::is_gray_kind(fe.kind) ||
      fe.kind == fault::FaultKind::kLinkRestore) {
    const auto e = static_cast<graph::EdgeId>(fe.id);
    const bool live_before = live_.edge_live(e);
    const bool was_detected = detector_.detected(e);
    live_.apply(fe);
    sync_links_of_edge(e);
    sync_gray_of_edge(fe);
    structural = live_.edge_live(e) != live_before ||
                 (fe.kind == fault::FaultKind::kLinkRestore && was_detected);
    if (fe.kind == fault::FaultKind::kLinkRestore) detector_.clear(e);
    if (fe.kind == fault::FaultKind::kLinkFlap) {
      // A flap announces itself at its first down transition, which is a
      // pure function of the flap parameters — no loss threshold needed.
      const auto period = static_cast<TimeNs>(fe.p1);
      const TimeNs up_ns = std::max<TimeNs>(
          1, static_cast<TimeNs>(
                 std::llround(static_cast<double>(period) * fe.p2)));
      const auto lid = static_cast<std::size_t>(2 * e);
      detect_armed_[lid] = 1;
      detect_armed_[lid + 1] = 1;
      s.schedule(fe.time + up_ns + cfg_.detector.detect_latency,
                 EventType::kDetect, fe.id, 0,
                 {owner::detect(static_cast<std::int32_t>(2 * e)),
                  detect_seq_[lid]++});
    }
  } else {
    live_.apply(fe);
    if (fault::is_link_kind(fe.kind)) {
      sync_links_of_edge(fe.id);
    } else {
      sync_links_of_switch(fe.id);
    }
  }
  if (!structural) return;
  comp_ = graph::connected_components(live_.surviving_graph()).id;
  ++fault_version_;
  stats_.last_fault_time = s.now();
  // Recovery events repair too: restored capacity re-enters the tables.
  s.schedule(s.now() + cfg_.control_plane_delay, EventType::kRepair, 0,
             fault_version_, {owner::kRepairRoot, fault_version_});
}

void PacketNetwork::sync_gray_of_edge(const fault::FaultEvent& fe) {
  const auto e = static_cast<graph::EdgeId>(fe.id);
  for (const auto id : {2 * e, 2 * e + 1}) {
    Link& l = *links_[static_cast<std::size_t>(id)];
    switch (fe.kind) {
      case fault::FaultKind::kLinkDegrade:
        // Fraction 0 is handled as take_down by sync_links_of_edge.
        if (fe.p1 > 0.0) l.set_degraded(fe.p1);
        break;
      case fault::FaultKind::kLinkLossy:
        l.set_lossy(fe.p1, gray_salt_);
        break;
      case fault::FaultKind::kLinkFlap:
        l.set_flap(fe.time, static_cast<TimeNs>(fe.p1), fe.p2);
        break;
      default:  // kLinkRestore
        l.clear_gray();
        detect_armed_[static_cast<std::size_t>(id)] = 0;
        break;
    }
  }
}

void PacketNetwork::on_gray_loss(Sched& sched, std::int32_t link_id,
                                 std::uint64_t cumulative_losses) {
  if (loss_timeline_ != nullptr) loss_timeline_->record(sched.now());
  const auto lid = static_cast<std::size_t>(link_id);
  if (detect_armed_[lid] != 0) return;  // detection already in flight
  if (cumulative_losses <
      static_cast<std::uint64_t>(cfg_.detector.detect_threshold)) {
    return;
  }
  detect_armed_[lid] = 1;
  sched.schedule(sched.now() + cfg_.detector.detect_latency,
                 EventType::kDetect, link_id / 2, 0,
                 {owner::detect(link_id), detect_seq_[lid]++});
}

void PacketNetwork::handle_detect(Sched& s, graph::EdgeId e) {
  if (!live_.edge_gray(e)) return;   // restored before detection landed
  if (detector_.detected(e)) return;  // other direction got there first
  detector_.mark_detected(e);
  ++fault_version_;
  s.schedule(s.now() + cfg_.control_plane_delay, EventType::kRepair, 0,
             fault_version_, {owner::kRepairRoot, fault_version_});
}

void PacketNetwork::sync_links_of_edge(graph::EdgeId e) {
  const bool up = live_.edge_live(e);
  for (const auto id : {2 * e, 2 * e + 1}) {
    Link& l = *links_[static_cast<std::size_t>(id)];
    if (up && !l.is_up()) {
      l.bring_up();
    } else if (!up && l.is_up()) {
      l.take_down();
    }
  }
}

void PacketNetwork::sync_links_of_switch(graph::NodeId sw) {
  for (const auto e : topo_.g.incident(sw)) sync_links_of_edge(e);
  const bool up = live_.switch_up(sw);
  const std::int32_t base = 2 * topo_.g.num_edges();
  const int first = topo_.first_server_of_switch(sw);
  for (int s = first; s < first + topo_.servers_per_switch()[sw]; ++s) {
    for (const auto id : {base + 2 * s, base + 2 * s + 1}) {
      Link& l = *links_[static_cast<std::size_t>(id)];
      if (up && !l.is_up()) {
        l.bring_up();
      } else if (!up && l.is_up()) {
        l.take_down();
      }
    }
  }
}

void PacketNetwork::repair_routing() {
  // Route around detected-gray links when possible; undetected gray
  // links stay in the tables (the control plane cannot avoid what it has
  // not noticed).
  excluded_.clear();
  if (cfg_.route_around_gray && detector_.detected_count() > 0) {
    excluded_ = detector_.excludable(live_);
    std::uint64_t n = 0;
    for (const auto x : excluded_) n += x != 0 ? 1 : 0;
    if (n == 0) excluded_.clear();
    // Peak across repairs: the final repair usually runs after every
    // restore (nothing left to exclude), so the last-repair count would
    // read 0 even when mid-episode repairs routed around detected links.
    if (n > gray_links_excluded_) gray_links_excluded_ = n;
  }
  live_graph_ = excluded_.empty()
                    ? live_.surviving_graph()
                    : fault::pruned_graph(topo_, live_, excluded_);
  // Rebuild toward every ToR: a dead ToR is isolated in the surviving
  // graph, so its entries are empty everywhere and in-flight packets
  // toward it drop as expelled rather than dangling on stale routes.
  ecmp_ = routing::EcmpTable::build(live_graph_, topo_.tors());
  if (ksp_ != nullptr) {
    ksp_ = std::make_unique<routing::KspTable>(live_graph_,
                                               cfg_.routing.ksp_k);
    router_->set_ksp(ksp_.get());
  }
  const auto live_tors = live_.live_tors(topo_);
  router_->set_via_candidates(live_tors);
  ++stats_.repairs;
  stats_.last_repair_time = active_sched().now();
  if (audit_enabled()) {
    fault::audit_repaired_tables(topo_, live_, ecmp_, live_tors, excluded_);
  }
  abort_doomed_flows();
}

bool PacketNetwork::pair_connected(graph::NodeId a, graph::NodeId b) const {
  return live_.switch_up(a) && live_.switch_up(b) &&
         comp_[static_cast<std::size_t>(a)] ==
             comp_[static_cast<std::size_t>(b)];
}

void PacketNetwork::abort_doomed_flows() {
  const auto n = static_cast<std::int32_t>(engine_->num_flows());
  for (std::int32_t id = 0; id < n; ++id) {
    const auto& f = engine_->flow(id);
    if (f.completed || f.aborted) continue;
    if (f.start_time < 0) continue;  // pre-opened, not yet started: the
                                     // connectivity check reruns at start
    if (!pair_connected(f.route.src_tor, f.route.dst_tor)) {
      engine_->abort_flow(id);
      stats_.aborted_flows.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void PacketNetwork::drop_unroutable(graph::NodeId sw, const Packet& pkt) {
  FLEXNETS_CHECK(cfg_.faults != nullptr, "no route from switch ", sw,
                 " toward ToR ", pkt.dst_tor, " on a fault-free network");
  if (pair_connected(sw, pkt.dst_tor)) {
    // dst is live and reachable: routing's fault.
    stats_.blackhole_drops.fetch_add(1, std::memory_order_relaxed);
    if (stats_.last_repair_time > stats_.last_fault_time) {
      stats_.post_repair_blackholes.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // dst dead or partitioned away.
    stats_.expelled_packets.fetch_add(1, std::memory_order_relaxed);
  }
}

PacketNetwork::FaultStats PacketNetwork::fault_stats() const {
  FaultStats s;
  s.blackhole_drops = stats_.blackhole_drops.load(std::memory_order_relaxed);
  s.post_repair_blackholes =
      stats_.post_repair_blackholes.load(std::memory_order_relaxed);
  s.expelled_packets =
      stats_.expelled_packets.load(std::memory_order_relaxed);
  s.aborted_flows = stats_.aborted_flows.load(std::memory_order_relaxed);
  s.repairs = stats_.repairs;
  s.last_fault_time = stats_.last_fault_time;
  s.last_repair_time = stats_.last_repair_time;
  for (const auto& l : links_) {
    s.expelled_packets += l->expelled() + l->dead_drops();
    s.gray_loss_drops += l->gray_drops();
  }
  s.detections = static_cast<std::uint64_t>(detector_.detections());
  s.gray_links_excluded = gray_links_excluded_;
  return s;
}

std::uint64_t PacketNetwork::total_drops() const {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l->drops();
  return n;
}

std::uint64_t PacketNetwork::total_ecn_marks() const {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l->ecn_marks();
  return n;
}

PacketNetwork::UtilizationSummary PacketNetwork::utilization(
    TimeNs horizon) const {
  assert(horizon > 0);
  UtilizationSummary s;
  int network_links = 0;
  int access_links = 0;
  for (const auto& l : links_) {
    const double cap_bytes = static_cast<double>(l->config().rate) / 8.0 *
                             to_seconds(horizon);
    const double u = static_cast<double>(l->bytes_sent()) / cap_bytes;
    const bool is_network = l->from_node() < num_switches_ &&
                            l->to_node() < num_switches_;
    if (is_network) {
      s.network_mean += u;
      s.network_max = std::max(s.network_max, u);
      ++network_links;
    } else {
      s.access_mean += u;
      s.access_max = std::max(s.access_max, u);
      ++access_links;
    }
  }
  if (network_links > 0) s.network_mean /= network_links;
  if (access_links > 0) s.access_mean /= access_links;
  return s;
}

}  // namespace flexnets::sim
