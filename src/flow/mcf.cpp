#include "flow/mcf.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "flow/solver_internals.hpp"

namespace flexnets::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Commodities sharing a source are served from one shortest-path tree per
// length recompute (Fleischer's grouping): an all-to-all TM needs O(n)
// SSSP runs per recompute wave instead of O(n^2). Groups keep the input's
// first-appearance order and members keep input order, so the routing
// sequence — and hence the result — is a deterministic function of the
// input alone.
struct SourceGroup {
  std::int32_t src = 0;
  std::vector<std::int32_t> members;  // commodity indices, input order
  std::vector<std::int32_t> targets;  // distinct destinations
};

}  // namespace

McfResult max_concurrent_flow(int num_nodes,
                              const std::vector<DirectedEdge>& edges,
                              const std::vector<McfCommodity>& commodities,
                              double eps, const McfLimits& limits) {
  assert(eps > 0.0 && eps <= 0.5);
  McfResult result;
  if (commodities.empty() || edges.empty()) return result;

  const auto m = edges.size();
  const auto csr = internal::CsrGraph::build(num_nodes, edges);
  // Capacities in a flat array: the inner loops touch them once per path
  // edge and should not drag whole DirectedEdge structs through the cache.
  std::vector<double> capacity(m);
  for (std::size_t e = 0; e < m; ++e) {
    assert(edges[e].capacity > 0.0);
    capacity[e] = edges[e].capacity;
  }

  // Initial edge lengths delta / c_e with
  // delta = (1 + eps) * ((1 + eps) * m)^(-1/eps).
  const double delta =
      (1.0 + eps) * std::pow((1.0 + eps) * static_cast<double>(m), -1.0 / eps);
  std::vector<double> length(m);
  double dual = 0.0;  // D(l) = sum_e length_e * c_e
  for (std::size_t e = 0; e < m; ++e) {
    length[e] = delta / capacity[e];
    dual += length[e] * capacity[e];  // == delta * m
  }

  std::vector<SourceGroup> groups;
  {
    std::vector<std::int32_t> group_of(static_cast<std::size_t>(num_nodes),
                                       -1);
    for (std::size_t ci = 0; ci < commodities.size(); ++ci) {
      const auto src = static_cast<std::size_t>(commodities[ci].src);
      if (group_of[src] < 0) {
        group_of[src] = static_cast<std::int32_t>(groups.size());
        groups.push_back({commodities[ci].src, {}, {}});
      }
      groups[static_cast<std::size_t>(group_of[src])].members.push_back(
          static_cast<std::int32_t>(ci));
    }
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(num_nodes), 0);
    for (auto& g : groups) {
      for (const auto ci : g.members) {
        const auto dst =
            static_cast<std::size_t>(commodities[static_cast<std::size_t>(ci)]
                                         .dst);
        if (!seen[dst]) {
          seen[dst] = 1;
          g.targets.push_back(static_cast<std::int32_t>(dst));
        }
      }
      for (const auto t : g.targets) seen[static_cast<std::size_t>(t)] = 0;
    }
  }

  internal::DaryDijkstra dijkstra;
  dijkstra.resize(num_nodes);

  // Fleischer-style path reuse: a commodity keeps routing along its cached
  // path while that path's current length is within (1+eps) of its length
  // when computed. Lengths only grow, so the cached path is then within
  // (1+eps) of the current shortest path and the (1-O(eps)) guarantee is
  // preserved; this cuts SSSP computations by roughly 1/eps. The path's
  // bottleneck is a pure capacity property, so it is computed once at
  // install time instead of being re-scanned every inner iteration.
  struct CachedPath {
    std::vector<std::int32_t> edges;  // dst -> src order
    double length_at_compute = 0.0;   // its length when installed
    double bottleneck = kInf;
  };
  std::vector<CachedPath> cache(commodities.size());

  // One SSSP serves the whole group: every member gets a fresh shortest
  // path, with its tree distance as the reuse reference length.
  auto refresh_group = [&](const SourceGroup& g) {
    ++result.dijkstra_calls;
    dijkstra.run(csr, length, g.src, g.targets);
    for (const auto ci : g.members) {
      const auto& cmd = commodities[static_cast<std::size_t>(ci)];
      // A silent partial result here would report near-zero throughput
      // for a disconnected instance instead of failing loudly.
      FLEXNETS_CHECK(dijkstra.dist(cmd.dst) < kInf, "MCF commodity ", ci,
                     " destination ", cmd.dst, " unreachable from ", cmd.src);
      CachedPath& cp = cache[static_cast<std::size_t>(ci)];
      cp.edges.clear();
      double bottleneck = kInf;
      for (auto v = cmd.dst; v != g.src;) {
        const auto e = dijkstra.parent_edge(v);
        cp.edges.push_back(e);
        bottleneck =
            std::min(bottleneck, capacity[static_cast<std::size_t>(e)]);
        v = edges[static_cast<std::size_t>(e)].from;
      }
      cp.bottleneck = bottleneck;
      cp.length_at_compute = dijkstra.dist(cmd.dst);
    }
  };

  auto path_length = [&](const std::vector<std::int32_t>& p) {
    double s = 0.0;
    for (const auto e : p) s += length[static_cast<std::size_t>(e)];
    return s;
  };

  // Raw flow routed per edge. After P completed phases every commodity has
  // routed P * demand, so scaling that flow by its measured maximum
  // congestion is feasible: P / max_e(flow_e / c_e) is a lower bound on
  // lambda*. GK's length invariant bounds flow_e by c_e * scale, so this
  // never falls below GK's worst-case P / scale.
  std::vector<double> edge_flow(m, 0.0);
  double best_lower = 0.0;
  double best_upper = kInf;
  int completed_phases = 0;
  auto tighten_lower = [&] {
    double congestion = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      congestion = std::max(congestion, edge_flow[e] / capacity[e]);
    }
    if (congestion > 0.0) {
      best_lower = std::max(
          best_lower, static_cast<double>(completed_phases) / congestion);
    }
  };
  // Weak LP duality: for any lengths l, lambda* <= D(l) / alpha(l) with
  // alpha(l) = sum_j d_j * dist_l(s_j, t_j). One SSSP per source group
  // gives alpha exactly, and running it through refresh_group also hands
  // every member a fresh shortest path -- the check replaces refreshes the
  // next phase would otherwise make.
  auto tighten_upper = [&] {
    double alpha = 0.0;
    for (const SourceGroup& g : groups) {
      refresh_group(g);
      for (const auto ci : g.members) {
        alpha += commodities[static_cast<std::size_t>(ci)].demand *
                 cache[static_cast<std::size_t>(ci)].length_at_compute;
      }
    }
    if (alpha > 0.0) best_upper = std::min(best_upper, dual / alpha);
  };

  // Audit state (common/check.hpp): per-commodity node imbalance (out minus
  // in) and per-commodity total routed -- with edge_flow, enough to
  // mechanically verify capacity feasibility and flow conservation of the
  // solution GK implicitly constructs.
  const bool audit = audit_enabled();
  std::vector<std::vector<double>> imbalance;
  std::vector<double> routed;
  if (audit) {
    imbalance.assign(commodities.size(),
                     std::vector<double>(static_cast<std::size_t>(num_nodes),
                                         0.0));
    routed.assign(commodities.size(), 0.0);
  }

  // Hard cap on phases as a safety net; GK terminates in
  // O(log(m)/eps^2) phases for lambda* >= 1 instances.
  const int safety_cap = static_cast<int>(
      std::ceil(2.0 / (eps * eps) * std::log(static_cast<double>(m) / (1 - eps))) *
      40) + 50;

  // Budgets and the certificate are checked at phase boundaries only: a
  // partial phase adds no lower bound (lambda counts completed phases), and
  // the boundary checks keep the routing sequence -- hence the result -- a
  // deterministic function of (input, budget), independent of when an
  // external cancel token happened to flip mid-phase. The upper bound is
  // also taken once before phase 1, which installs every first path.
  tighten_upper();
  bool budget_stop = false;
  bool certified = false;
  while (dual < 1.0 && completed_phases < safety_cap) {
    if ((limits.max_phases > 0 && completed_phases >= limits.max_phases) ||
        (limits.cancel != nullptr &&
         limits.cancel->load(std::memory_order_relaxed))) {
      budget_stop = true;
      break;
    }
    for (const SourceGroup& g : groups) {
      for (const auto ci : g.members) {
        const auto& cmd = commodities[static_cast<std::size_t>(ci)];
        // Current length of the cached path: re-summed once per visit
        // (other commodities grew shared edges since the last one), then
        // maintained incrementally from the growth this commodity applies
        // — the inner loop never re-sums.
        double cur_len = path_length(cache[static_cast<std::size_t>(ci)].edges);
        double remaining = cmd.demand;
        while (remaining > 0.0 && dual < 1.0) {
          if (cur_len > (1.0 + eps) *
                            cache[static_cast<std::size_t>(ci)]
                                .length_at_compute) {
            refresh_group(g);
            cur_len = cache[static_cast<std::size_t>(ci)].length_at_compute;
          }
          const CachedPath& cp = cache[static_cast<std::size_t>(ci)];
          const double f = std::min(remaining, cp.bottleneck);
          double grown = 0.0;
          for (const auto e : cp.edges) {
            const auto ei = static_cast<std::size_t>(e);
            const double grow = length[ei] * eps * f / capacity[ei];
            length[ei] += grow;
            dual += grow * capacity[ei];
            grown += grow;
            edge_flow[ei] += f;
          }
          cur_len += grown;
          if (audit) {
            routed[static_cast<std::size_t>(ci)] += f;
            for (const auto e : cp.edges) {
              imbalance[static_cast<std::size_t>(ci)]
                       [static_cast<std::size_t>(
                           edges[static_cast<std::size_t>(e)].from)] += f;
              imbalance[static_cast<std::size_t>(ci)]
                       [static_cast<std::size_t>(
                           edges[static_cast<std::size_t>(e)].to)] -= f;
            }
          }
          remaining -= f;
        }
        if (dual >= 1.0) break;
      }
      if (dual >= 1.0) break;
    }
    if (dual >= 1.0) break;
    ++completed_phases;
    tighten_lower();
    tighten_upper();
    if (best_lower >= (1.0 - eps) * best_upper) {
      certified = true;
      break;
    }
  }

  result.phases = completed_phases;
  result.lambda = best_lower;
  result.lambda_upper = best_upper;

  if (!certified && dual < 1.0) {
    if (budget_stop) {
      result.status = budget_exhausted_error(
          "GK stopped after ", completed_phases,
          " completed phases; lambda so far ", result.lambda);
    } else {
      result.status = non_converged_error(
          "GK hit the internal phase safety cap (", safety_cap,
          " phases) without reaching dual >= 1");
    }
  }

  if (audit) {
    // The capacity and conservation invariants below hold mid-run as well
    // (edge lengths only grow, and dual < 1 at any early exit still bounds
    // length_e * c_e), so a budgeted exit is audited exactly like a
    // converged one -- the partial lambda must be honest too.
    // Capacity feasibility: GK's length invariant bounds the raw flow on
    // every edge by capacity * scale, with scale = log_{1+eps}((1+eps) /
    // delta), so flow/scale is feasible. A breach means the length updates
    // (and hence lambda) are wrong.
    const double scale =
        std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
    for (std::size_t e = 0; e < m; ++e) {
      FLEXNETS_CHECK_LE(
          edge_flow[e], capacity[e] * scale * (1.0 + 1e-9) + 1e-12,
          "GK routed past the capacity*scale bound on edge ", e);
    }
    // Weak duality: a feasible lambda above a dual bound means one of the
    // two bounds is wrong.
    FLEXNETS_CHECK_LE(result.lambda, result.lambda_upper * (1.0 + 1e-9),
                      "GK lower bound exceeds its LP-duality upper bound");
    // Flow conservation: per commodity, net outflow is +routed at the
    // source, -routed at the destination, ~0 elsewhere.
    for (std::size_t ci = 0; ci < commodities.size(); ++ci) {
      const auto& cmd = commodities[ci];
      if (cmd.src == cmd.dst) continue;
      const double tol = 1e-9 * std::max(1.0, routed[ci]);
      for (int v = 0; v < num_nodes; ++v) {
        double expected = 0.0;
        if (v == cmd.src) expected = routed[ci];
        if (v == cmd.dst) expected = -routed[ci];
        FLEXNETS_CHECK(
            std::abs(imbalance[ci][static_cast<std::size_t>(v)] - expected) <=
                tol,
            "flow conservation violated: commodity ", ci, " node ", v,
            " imbalance=", imbalance[ci][static_cast<std::size_t>(v)],
            " expected=", expected);
      }
    }
  }
  return result;
}

}  // namespace flexnets::flow
