#include "flow/throughput.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/check.hpp"

namespace flexnets::flow {

namespace {

// Shared implementation of the plain and budget-aware entries.
ThroughputResult throughput_impl(const topo::Topology& t,
                                 const TrafficMatrix& tm,
                                 const ThroughputOptions& opts,
                                 const ThroughputCache& cache);

// A hose-model solve's bounds: lambda* <= 1 by construction (every
// commodity leaves through its rack's out-demand edge), so both clamp.
ThroughputResult to_throughput(const McfResult& r) {
  return {std::clamp(r.lambda, 0.0, 1.0),
          std::clamp(r.lambda_upper, 0.0, 1.0), r.status};
}

// Stale-handoff audit: the cache must describe exactly the topology this
// evaluation runs on. Catches a sweep wiring the wrong topology's cache
// into a point.
void audit_cache_handoff(const topo::Topology& t,
                         const ThroughputCache& cache) {
  if (!audit_enabled()) return;
  FLEXNETS_CHECK_EQ(cache.num_switches, t.num_switches(),
                    "throughput cache built for a different topology");
  FLEXNETS_CHECK_EQ(cache.base_edges.size(),
                    static_cast<std::size_t>(t.g.num_edges()) * 2,
                    "throughput cache edge count mismatch");
  FLEXNETS_CHECK_EQ(cache.topo_digest, t.digest(),
                    "throughput cache digest mismatch (stale handoff)");
}

}  // namespace

ThroughputCache build_throughput_cache(const topo::Topology& t) {
  ThroughputCache cache;
  cache.num_switches = t.num_switches();
  cache.base_edges.reserve(static_cast<std::size_t>(t.g.num_edges()) * 2);
  for (const auto& e : t.g.edges()) {
    cache.base_edges.push_back({e.a, e.b, 1.0});
    cache.base_edges.push_back({e.b, e.a, 1.0});
  }
  cache.topo_digest = t.digest();
  return cache;
}

McfInstance build_mcf_instance(const ThroughputCache& cache,
                               const TrafficMatrix& tm) {
  McfInstance inst;
  const int s = cache.num_switches;
  const auto out_d = tm.out_demand(s);
  const auto in_d = tm.in_demand(s);

  inst.edges = cache.base_edges;
  inst.edges.reserve(inst.edges.size() + tm.commodities.size() * 2);

  // Virtual hose nodes for racks with demand.
  int next_node = s;
  std::unordered_map<int, int> vnode;  // switch -> virtual node id
  for (int sw = 0; sw < s; ++sw) {
    if (out_d[sw] > 0.0 || in_d[sw] > 0.0) {
      vnode[sw] = next_node++;
      if (out_d[sw] > 0.0) inst.edges.push_back({vnode[sw], sw, out_d[sw]});
      if (in_d[sw] > 0.0) inst.edges.push_back({sw, vnode[sw], in_d[sw]});
    }
  }
  inst.num_nodes = next_node;

  inst.commodities.reserve(tm.commodities.size());
  for (const auto& c : tm.commodities) {
    assert(c.demand > 0.0);
    inst.commodities.push_back(
        {vnode.at(c.src_tor), vnode.at(c.dst_tor), c.demand});
  }
  return inst;
}

StatusOr<McfInstance> build_mcf_instance(const ThroughputCache& cache,
                                         const TmView& tm,
                                         std::int64_t max_commodities) {
  const auto count = tm.num_commodities();
  // The scale guard of the streaming path: everything before this line is
  // O(1) in the TM, so an over-cap request costs nothing but this check.
  if (count > max_commodities) {
    return invalid_input_error(
        "TM view holds ", count,
        " commodities; materializing a GK instance is capped at ",
        max_commodities, " (raise the cap explicitly or use "
        "flow::throughput_bracket for bound-only evaluation)");
  }

  McfInstance inst;
  const int s = cache.num_switches;
  // Accumulated in enumeration order — bitwise equal to the materialized
  // TrafficMatrix::out_demand / in_demand sums.
  std::vector<double> out_d(static_cast<std::size_t>(s), 0.0);
  std::vector<double> in_d(static_cast<std::size_t>(s), 0.0);
  tm.for_each([&](int src, int dst, double demand) {
    out_d[static_cast<std::size_t>(src)] += demand;
    in_d[static_cast<std::size_t>(dst)] += demand;
  });

  inst.edges = cache.base_edges;
  inst.edges.reserve(inst.edges.size() + static_cast<std::size_t>(count) * 2);

  // Virtual hose nodes for racks with demand, in switch-id order exactly
  // like the materialized builder.
  int next_node = s;
  std::unordered_map<int, int> vnode;  // switch -> virtual node id
  for (int sw = 0; sw < s; ++sw) {
    if (out_d[static_cast<std::size_t>(sw)] > 0.0 ||
        in_d[static_cast<std::size_t>(sw)] > 0.0) {
      vnode[sw] = next_node++;
      if (out_d[static_cast<std::size_t>(sw)] > 0.0) {
        inst.edges.push_back(
            {vnode[sw], sw, out_d[static_cast<std::size_t>(sw)]});
      }
      if (in_d[static_cast<std::size_t>(sw)] > 0.0) {
        inst.edges.push_back(
            {sw, vnode[sw], in_d[static_cast<std::size_t>(sw)]});
      }
    }
  }
  inst.num_nodes = next_node;

  inst.commodities.reserve(static_cast<std::size_t>(count));
  tm.for_each([&](int src, int dst, double demand) {
    FLEXNETS_DCHECK(demand > 0.0);
    inst.commodities.push_back({vnode.at(src), vnode.at(dst), demand});
  });
  return inst;
}

ThroughputResult per_server_throughput_budgeted(const topo::Topology& t,
                                                const TrafficMatrix& tm,
                                                const ThroughputOptions& opts,
                                                const ThroughputCache& cache) {
  return throughput_impl(t, tm, opts, cache);
}

double per_server_throughput(const topo::Topology& t, const TrafficMatrix& tm,
                             const ThroughputOptions& opts,
                             const ThroughputCache& cache) {
  return throughput_impl(t, tm, opts, cache).lambda;
}

namespace {

ThroughputResult throughput_impl(const topo::Topology& t,
                                 const TrafficMatrix& tm,
                                 const ThroughputOptions& opts,
                                 const ThroughputCache& cache) {
  audit_cache_handoff(t, cache);
  if (tm.commodities.empty()) return {};

  const auto inst = build_mcf_instance(cache, tm);
  return to_throughput(max_concurrent_flow(
      inst.num_nodes, inst.edges, inst.commodities, opts.eps, opts.limits));
}

}  // namespace

double per_server_throughput(const topo::Topology& t, const TrafficMatrix& tm,
                             const ThroughputOptions& opts) {
  return per_server_throughput(t, tm, opts, build_throughput_cache(t));
}

ThroughputResult per_server_throughput_budgeted(
    const topo::Topology& t, const TmView& tm,
    const ThroughputOptions& opts, const ThroughputCache& cache,
    std::int64_t max_commodities) {
  audit_cache_handoff(t, cache);
  if (tm.empty()) return {};

  auto inst = build_mcf_instance(cache, tm, max_commodities);
  if (!inst.ok()) return {0.0, 0.0, inst.status()};
  return to_throughput(max_concurrent_flow(inst->num_nodes, inst->edges,
                                           inst->commodities, opts.eps,
                                           opts.limits));
}

double per_server_throughput(const topo::Topology& t, const TmView& tm,
                             const ThroughputOptions& opts) {
  return per_server_throughput_budgeted(t, tm, opts,
                                        build_throughput_cache(t))
      .lambda;
}

double tp_curve(double alpha, double x) {
  assert(x > 0.0);
  return std::min(1.0, alpha / x);
}

}  // namespace flexnets::flow
