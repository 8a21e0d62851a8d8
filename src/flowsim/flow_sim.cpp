#include "flowsim/flow_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "common/check.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::flowsim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

FlowLevelSimulator::FlowLevelSimulator(const topo::Topology& topo,
                                       const FlowSimConfig& cfg)
    : topo_(topo), cfg_(cfg) {
  const int s = topo_.num_switches();
  num_network_links_ = 2 * topo_.g.num_edges();
  const int servers = topo_.num_servers();
  capacity_.assign(static_cast<std::size_t>(num_network_links_) +
                       2 * static_cast<std::size_t>(servers),
                   static_cast<double>(cfg_.link_rate));
  for (int i = 0; i < 2 * servers; ++i) {
    capacity_[static_cast<std::size_t>(num_network_links_ + i)] =
        static_cast<double>(cfg_.server_rate);
  }

  out_link_.resize(static_cast<std::size_t>(s));
  for (graph::EdgeId e = 0; e < topo_.g.num_edges(); ++e) {
    const auto& ed = topo_.g.edge(e);
    out_link_[ed.a].emplace_back(ed.b, 2 * e);
    out_link_[ed.b].emplace_back(ed.a, 2 * e + 1);
  }
  for (auto& v : out_link_) std::sort(v.begin(), v.end());

  tor_of_server_.reserve(static_cast<std::size_t>(servers));
  for (topo::NodeId sw = 0; sw < s; ++sw) {
    for (int i = 0; i < topo_.servers_per_switch()[sw]; ++i) {
      tor_of_server_.push_back(sw);
    }
  }

  if (cfg_.faults != nullptr) {
    cfg_.faults->validate(topo_);
    live_ = fault::LiveState(topo_);
  }
  rebuild_tables(topo_.g);
}

void FlowLevelSimulator::rebuild_tables(const graph::Graph& g) {
  const int s = topo_.num_switches();
  next_hops_.resize(static_cast<std::size_t>(s));
  dist_.resize(static_cast<std::size_t>(s));
  for (topo::NodeId dst = 0; dst < s; ++dst) {
    next_hops_[dst] = graph::ecmp_next_hops_to(g, dst);
    dist_[dst] = graph::bfs_distances(g, dst);
  }
  via_tors_.clear();
  for (const auto tor : topo_.tors()) {
    if (cfg_.faults == nullptr || live_.switch_up(tor)) {
      via_tors_.push_back(tor);
    }
  }
}

bool FlowLevelSimulator::routable(int src_server, int dst_server) const {
  const auto src_tor = tor_of_server_[src_server];
  const auto dst_tor = tor_of_server_[dst_server];
  if (cfg_.faults != nullptr &&
      (!live_.switch_up(src_tor) || !live_.switch_up(dst_tor))) {
    return false;
  }
  return src_tor == dst_tor ||
         dist_[dst_tor][src_tor] != graph::kUnreachable;
}

bool FlowLevelSimulator::route_blocked(
    const std::vector<RouteShare>& route) const {
  for (const auto& rs : route) {
    if (rs.link < num_network_links_) {
      if (!live_.edge_live(rs.link / 2)) return true;
    } else {
      const int server = (rs.link - num_network_links_) / 2;
      if (!live_.switch_up(tor_of_server_[server])) return true;
    }
  }
  return false;
}

void FlowLevelSimulator::apply_gray_capacity(const fault::FaultEvent& fe) {
  double factor = 1.0;
  switch (fe.kind) {
    case fault::FaultKind::kLinkDegrade: factor = fe.p1; break;
    case fault::FaultKind::kLinkLossy: factor = 1.0 - fe.p1; break;
    case fault::FaultKind::kLinkFlap: factor = fe.p2; break;
    default: break;  // kLinkRestore: back to nominal
  }
  const auto e = static_cast<std::size_t>(fe.id);
  const double bps = static_cast<double>(cfg_.link_rate) * factor;
  capacity_[2 * e] = bps;
  capacity_[2 * e + 1] = bps;
}

std::int32_t FlowLevelSimulator::link_id(topo::NodeId from,
                                         topo::NodeId to) const {
  const auto& v = out_link_[from];
  const auto it = std::lower_bound(
      v.begin(), v.end(), std::pair<topo::NodeId, std::int32_t>{to, -1});
  assert(it != v.end() && it->first == to && "no such link");
  return it->second;
}

void FlowLevelSimulator::append_ecmp_leg(std::vector<RouteShare>& out,
                                         topo::NodeId from, topo::NodeId to,
                                         bool split, std::uint64_t salt) {
  if (from == to) return;
  if (split) {
    // Fluid ECMP: traffic at each node divides evenly over its next hops;
    // propagate fractions breadth-first along the shortest-path DAG.
    std::map<topo::NodeId, double> mass{{from, 1.0}};
    while (!(mass.size() == 1 && mass.begin()->first == to)) {
      std::map<topo::NodeId, double> next_mass;
      for (const auto& [node, m] : mass) {
        if (node == to) {
          next_mass[to] += m;
          continue;
        }
        const auto& hops = next_hops_[to][node];
        FLEXNETS_CHECK(!hops.empty(), "flowsim: no next hop from switch ",
                       node, " toward unreachable ToR ", to);
        const double each = m / static_cast<double>(hops.size());
        for (const auto h : hops) {
          out.push_back({link_id(node, h), each});
          next_mass[h] += each;
        }
      }
      mass = std::move(next_mass);
    }
  } else {
    topo::NodeId at = from;
    int hop = 0;
    while (at != to) {
      const auto& hops = next_hops_[to][at];
      FLEXNETS_CHECK(!hops.empty(), "flowsim: no next hop from switch ", at,
                     " toward unreachable ToR ", to);
      const auto h = hops[hash_words(salt, static_cast<std::uint64_t>(at),
                                     static_cast<std::uint64_t>(hop)) %
                          hops.size()];
      out.push_back({link_id(at, h), 1.0});
      at = h;
      ++hop;
    }
  }
}

std::vector<FlowLevelSimulator::RouteShare> FlowLevelSimulator::route_for(
    int src_server, int dst_server, Bytes size) {
  const std::uint64_t salt =
      splitmix64(cfg_.seed ^ (0x9e3779b9ULL + ++flow_counter_));

  std::vector<RouteShare> route;
  const auto src_tor = tor_of_server_[src_server];
  const auto dst_tor = tor_of_server_[dst_server];
  // Server access links.
  route.push_back(
      {num_network_links_ + 2 * src_server, 1.0});  // host uplink
  route.push_back(
      {num_network_links_ + 2 * dst_server + 1, 1.0});  // host downlink
  if (src_tor == dst_tor) return route;

  const bool vlb =
      cfg_.routing == FlowRouting::kVlb ||
      (cfg_.routing == FlowRouting::kHyb && size >= cfg_.hyb_threshold);
  if (vlb) {
    // Spread over several random vias (the fluid analogue of per-flowlet
    // via re-selection), each carrying an equal share of the flow. Vias
    // come from the live ToR pool and must have a path from src and to dst
    // on the current tables (always true before any failure).
    Rng rng(salt);
    const int k = std::max(1, cfg_.vlb_via_samples);
    std::vector<topo::NodeId> vias;
    int guard = 100 * k;
    while (static_cast<int>(vias.size()) < k && guard-- > 0) {
      const auto via = via_tors_[rng.next_u64(via_tors_.size())];
      if (via == src_tor || via == dst_tor) continue;
      if (dist_[via][src_tor] == graph::kUnreachable ||
          dist_[dst_tor][via] == graph::kUnreachable) {
        continue;
      }
      if (std::find(vias.begin(), vias.end(), via) != vias.end()) continue;
      vias.push_back(via);
    }
    if (vias.empty()) {
      // No usable bounce point survives: route the flow directly.
      append_ecmp_leg(route, src_tor, dst_tor, /*split=*/false, salt ^ 3);
      return route;
    }
    const double share = 1.0 / static_cast<double>(vias.size());
    for (std::size_t v = 0; v < vias.size(); ++v) {
      std::vector<RouteShare> leg;
      append_ecmp_leg(leg, src_tor, vias[v], /*split=*/false,
                      salt ^ (2 * v + 1));
      append_ecmp_leg(leg, vias[v], dst_tor, /*split=*/false,
                      salt ^ (2 * v + 2));
      for (auto& rs : leg) {
        rs.share *= share;
        route.push_back(rs);
      }
    }
  } else {
    const bool split = cfg_.routing == FlowRouting::kEcmpSplit;
    append_ecmp_leg(route, src_tor, dst_tor, split, salt ^ 3);
  }
  return route;
}

std::vector<metrics::FlowRecord> FlowLevelSimulator::run(
    const std::vector<workload::FlowSpec>& flows) {
  // `remaining` is kept in fractional bits: quantizing the drain to whole
  // bytes (as an earlier version did) systematically rounds up, which lets
  // a flow finish ahead of its own NIC's serialization floor by a few ns.
  struct Active {
    int id;
    double remaining;   // bits
    double rate = 0.0;  // bits per second
    bool stalled = false;  // no usable route; waits for a repair epoch
    std::vector<RouteShare> route;
  };
  // Retirement threshold for drained flows: far below one byte, far above
  // the accumulated double rounding error of any realistic instance.
  constexpr double kResidualBits = 1e-3;

  std::vector<metrics::FlowRecord> records;
  records.reserve(flows.size());
  for (const auto& f : flows) records.push_back({f.start, -1, f.size});

  std::vector<int> arrival_order(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    arrival_order[i] = static_cast<int>(i);
  }
  std::sort(arrival_order.begin(), arrival_order.end(), [&](int a, int b) {
    return flows[static_cast<std::size_t>(a)].start <
           flows[static_cast<std::size_t>(b)].start;
  });

  std::vector<Active> active;
  std::size_t next_arrival = 0;
  double now_sec = 0.0;
  const bool audit = audit_enabled();
  Digest digest;

  // Max-min fair rates by progressive filling. Only links actually carrying
  // unfrozen flows are scanned each round (the capacity vector covers every
  // link in the network, most of which are idle at any instant).
  std::vector<double> residual;
  std::vector<double> weight;
  std::vector<std::int32_t> hot_links;
  auto recompute_rates = [&]() {
    residual = capacity_;
    weight.assign(capacity_.size(), 0.0);  // unfrozen shares
    hot_links.clear();
    for (const auto& a : active) {
      for (const auto& rs : a.route) {
        if (weight[rs.link] == 0.0) hot_links.push_back(rs.link);
        weight[rs.link] += rs.share;
      }
    }
    std::vector<char> frozen(active.size(), 0);
    std::size_t remaining = active.size();
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i].stalled) {
        active[i].rate = 0.0;
        frozen[i] = 1;
        --remaining;
      }
    }
    while (remaining > 0) {
      // Bottleneck link: minimal residual / weight.
      double best = kInf;
      for (const auto l : hot_links) {
        if (weight[l] > 1e-12) {
          best = std::min(best, residual[l] / weight[l]);
        }
      }
      if (best == kInf) break;  // no constrained flows left (cannot happen)
      // Freeze every unfrozen flow whose bottleneck share equals `best` on
      // some saturated link; to keep the loop simple and O(F*L) total,
      // freeze all flows traversing any link within epsilon of `best`.
      bool froze_any = false;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (frozen[i]) continue;
        bool bottlenecked = false;
        for (const auto& rs : active[i].route) {
          if (weight[rs.link] > 1e-12 &&
              residual[rs.link] / weight[rs.link] <= best * (1.0 + 1e-9)) {
            bottlenecked = true;
            break;
          }
        }
        if (bottlenecked) {
          frozen[i] = 1;
          froze_any = true;
          --remaining;
          active[i].rate = best;  // fair share at the bottleneck
          for (const auto& rs : active[i].route) {
            residual[rs.link] =
                std::max(0.0, residual[rs.link] - best * rs.share);
            weight[rs.link] -= rs.share;
          }
        }
      }
      assert(froze_any);
      if (!froze_any) break;
    }
  };

  // Audit pass: the max-min allocation must be capacity-feasible -- on
  // every link the allocated rates (weighted by route share) may not
  // exceed capacity, and every active flow must have a positive rate.
  auto audit_rates = [&]() {
    std::vector<double> load(capacity_.size(), 0.0);
    for (const auto& a : active) {
      if (a.stalled) continue;  // rate 0 by construction
      FLEXNETS_CHECK_GT(a.rate, 0.0, "flow ", a.id,
                        " active with nonpositive rate");
      for (const auto& rs : a.route) {
        load[static_cast<std::size_t>(rs.link)] += a.rate * rs.share;
      }
    }
    for (std::size_t l = 0; l < load.size(); ++l) {
      FLEXNETS_CHECK_LE(load[l], capacity_[l] * (1.0 + 1e-6),
                        "link ", l, " oversubscribed by max-min allocation");
    }
  };

  // Fault and repair epochs, time-sorted (plan events are already sorted;
  // the constant repair offset preserves the interleaving per kind).
  struct Epoch {
    TimeNs time;
    bool repair;        // false: the fault itself; true: tables rebuilt
    std::size_t index;  // into the plan's events
  };
  std::vector<Epoch> epochs;
  if (cfg_.faults != nullptr) {
    const auto& ev = cfg_.faults->events();
    for (std::size_t i = 0; i < ev.size(); ++i) {
      epochs.push_back({ev[i].time, false, i});
      epochs.push_back({ev[i].time + cfg_.control_plane_delay, true, i});
    }
    std::stable_sort(
        epochs.begin(), epochs.end(),
        [](const Epoch& a, const Epoch& b) { return a.time < b.time; });
  }
  std::size_t next_epoch = 0;

  enum class Kind { kNone, kArrival, kCompletion, kEpoch };
  std::uint64_t events = 0;
  truncated_ = false;
  while (next_arrival < flows.size() || !active.empty()) {
    if (cfg_.max_events != 0 && events >= cfg_.max_events) {
      // Budget exhausted: in-flight and not-yet-arrived flows keep
      // end = -1 and the caller sees last_run_truncated().
      truncated_ = true;
      break;
    }
    ++events;
    // Next event: earliest of (epoch, next arrival, earliest completion).
    double next_event = kInf;
    Kind kind = Kind::kNone;
    if (next_epoch < epochs.size()) {
      next_event = to_seconds(epochs[next_epoch].time);
      kind = Kind::kEpoch;
    }
    if (next_arrival < flows.size()) {
      const double t = to_seconds(flows[static_cast<std::size_t>(
                                            arrival_order[next_arrival])]
                                      .start);
      if (t < next_event) {
        next_event = t;
        kind = Kind::kArrival;
      }
    }
    int completing = -1;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const auto& a = active[i];
      if (a.stalled) continue;
      assert(a.rate > 0.0);
      const double done_at = now_sec + a.remaining / a.rate;
      if (done_at < next_event - 1e-15) {
        next_event = done_at;
        completing = static_cast<int>(i);
        kind = Kind::kCompletion;
      }
    }
    // Only permanently stalled flows remain: they never complete (their
    // records keep end = -1).
    if (kind == Kind::kNone) break;

    // Drain bits until the event.
    const double dt = std::max(0.0, next_event - now_sec);
    if (timeline_ != nullptr && dt > 0.0) {
      double total_rate = 0.0;
      for (const auto& a : active) total_rate += a.rate;
      timeline_->record_rate(
          static_cast<TimeNs>(std::llround(now_sec * 1e9)),
          static_cast<TimeNs>(std::llround(next_event * 1e9)), total_rate);
    }
    for (auto& a : active) {
      a.remaining = std::max(0.0, a.remaining - a.rate * dt);
    }
    now_sec = next_event;

    if (kind == Kind::kEpoch) {
      const auto& ep = epochs[next_epoch++];
      const auto& fe = cfg_.faults->events()[ep.index];
      if (!ep.repair) {
        live_.apply(fe);
        if (fault::is_gray_kind(fe.kind) ||
            fe.kind == fault::FaultKind::kLinkRestore) {
          apply_gray_capacity(fe);
        }
        // Flows crossing a dead element stall until the control plane
        // reconverges (the fluid analogue of packets draining into a
        // blackhole and the transport backing off).
        for (auto& a : active) {
          if (!a.stalled && route_blocked(a.route)) {
            a.stalled = true;
            a.rate = 0.0;
            a.route.clear();
          }
        }
      } else {
        rebuild_tables(live_.surviving_graph());
        for (auto& a : active) {
          if (!a.stalled) continue;
          const auto& spec = flows[static_cast<std::size_t>(a.id)];
          if (!routable(spec.src_server, spec.dst_server)) continue;
          a.route = route_for(spec.src_server, spec.dst_server, spec.size);
          a.stalled = false;
        }
      }
    } else if (kind == Kind::kArrival) {
      const int id = arrival_order[next_arrival++];
      const auto& spec = flows[static_cast<std::size_t>(id)];
      Active a;
      a.id = id;
      a.remaining = static_cast<double>(spec.size) * 8.0;
      if (cfg_.faults != nullptr &&
          !routable(spec.src_server, spec.dst_server)) {
        a.stalled = true;
      } else {
        a.route = route_for(spec.src_server, spec.dst_server, spec.size);
        // Pre-repair arrivals route on stale tables and may land on a dead
        // element, exactly like packets would.
        if (cfg_.faults != nullptr && route_blocked(a.route)) {
          a.stalled = true;
          a.route.clear();
        }
      }
      active.push_back(std::move(a));
    } else {
      // The completing flow retires, along with any other flow whose
      // residual is below the retirement threshold (a simultaneous
      // completion up to double rounding).
      const auto end_ns = static_cast<TimeNs>(std::llround(now_sec * 1e9));
      active[completing].remaining = 0.0;
      records[static_cast<std::size_t>(active[completing].id)].end = end_ns;
      if (audit) {
        digest.mix(static_cast<std::uint64_t>(active[completing].id));
        digest.mix_time(end_ns);
      }
      active.erase(active.begin() + completing);
      for (std::size_t i = active.size(); i-- > 0;) {
        if (active[i].remaining <= kResidualBits) {
          records[static_cast<std::size_t>(active[i].id)].end = end_ns;
          if (audit) {
            digest.mix(static_cast<std::uint64_t>(active[i].id));
            digest.mix_time(end_ns);
          }
          active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    recompute_rates();
    if (audit) audit_rates();
  }
  digest_ = digest.value();
  return records;
}

}  // namespace flexnets::flowsim
