#include "flow/bracket.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "topo/csr/csr_algorithms.hpp"

namespace flexnets::flow {

namespace {

using topo::NodeId;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Every link carries one unit of capacity per direction (the fluid
// engine's convention), so capacities below are link counts.

// Capacity leaving each switch: its degree.
std::vector<double> incident_capacity(const topo::Topology& t) {
  std::vector<double> cap(static_cast<std::size_t>(t.num_switches()), 0.0);
  for (NodeId u = 0; u < t.num_switches(); ++u) {
    cap[static_cast<std::size_t>(u)] = static_cast<double>(t.g.degree(u));
  }
  return cap;
}

// Every unit of a rack's hose demand crosses its own switch's links: the
// source side caps lambda at incident_capacity / out_demand, the sink side
// at incident_capacity / in_demand.
double node_cut_upper(const std::vector<double>& incident_cap,
                      const std::vector<double>& out_d,
                      const std::vector<double>& in_d) {
  double best = kInf;
  for (std::size_t v = 0; v < incident_cap.size(); ++v) {
    if (out_d[v] > 0.0) best = std::min(best, incident_cap[v] / out_d[v]);
    if (in_d[v] > 0.0) best = std::min(best, incident_cap[v] / in_d[v]);
  }
  return best;
}

// Capacity of the directed arcs leaving the cut side: the links crossing
// it, which also equals the reverse direction's capacity.
double cut_capacity(const topo::Topology& t,
                    const std::vector<char>& in_side) {
  std::int64_t crossing = 0;
  for (const auto& e : t.g.edges()) {
    crossing += in_side[static_cast<std::size_t>(e.a)] !=
                in_side[static_cast<std::size_t>(e.b)];
  }
  return static_cast<double>(crossing);
}

// lambda <= cut capacity / demand across, evaluated in both directions.
double cut_upper(const topo::Topology& t, const TmView& tm,
                 const std::vector<char>& in_side) {
  const double cap = cut_capacity(t, in_side);
  double best = kInf;
  const double fwd = tm.demand_across(in_side);
  if (fwd > 0.0) best = std::min(best, cap / fwd);
  std::vector<char> flipped(in_side.size());
  for (std::size_t i = 0; i < in_side.size(); ++i) {
    flipped[i] = in_side[i] == 0 ? 1 : 0;
  }
  const double rev = tm.demand_across(flipped);
  if (rev > 0.0) best = std::min(best, cap / rev);
  return best;
}

// Cut candidates from an approximate Fiedler vector: the sign cut and a
// balanced median cut. Any cut is sound; the spectral vector only steers
// toward a sparse one.
double spectral_cut_upper(const topo::Topology& t, const TmView& tm,
                          int power_iterations, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(t.num_switches());
  const auto spectral =
      graph::second_eigenvector(t.g, power_iterations, seed);
  if (spectral.vec.empty()) return kInf;

  double best = kInf;
  std::vector<char> side(n, 0);
  std::size_t inside = 0;
  for (std::size_t v = 0; v < n; ++v) {
    side[v] = spectral.vec[v] >= 0.0 ? 1 : 0;
    inside += side[v];
  }
  if (inside > 0 && inside < n) best = std::min(best, cut_upper(t, tm, side));

  // Median split: order by coordinate, lower half inside.
  std::vector<NodeId> by_coord(n);
  for (std::size_t v = 0; v < n; ++v) by_coord[v] = static_cast<NodeId>(v);
  std::sort(by_coord.begin(), by_coord.end(),
            [&](NodeId a, NodeId b) {
              const double xa = spectral.vec[static_cast<std::size_t>(a)];
              const double xb = spectral.vec[static_cast<std::size_t>(b)];
              return xa != xb ? xa < xb : a < b;
            });
  std::fill(side.begin(), side.end(), 0);
  for (std::size_t i = 0; i < n / 2; ++i) {
    side[static_cast<std::size_t>(by_coord[i])] = 1;
  }
  if (n / 2 > 0 && n / 2 < n) best = std::min(best, cut_upper(t, tm, side));
  return best;
}

// Deterministic spread-out tree roots: k-center greedy seeded at `first` —
// each new root maximizes its BFS distance to the roots already chosen
// (lowest id wins ties). Returns the BFS trees themselves; each pick's
// tree is reused for the distance update, so root selection costs nothing
// extra.
std::vector<topo::CsrBfsTree> spread_trees(const topo::Topology& t,
                                           NodeId first, int num_trees) {
  const auto n = static_cast<std::size_t>(t.num_switches());
  std::vector<topo::CsrBfsTree> trees;
  std::vector<std::int64_t> min_dist(n, std::numeric_limits<std::int64_t>::max());
  NodeId root = first;
  for (int k = 0; k < num_trees; ++k) {
    trees.push_back(topo::csr_bfs_tree(t, root));
    const auto& depth = trees.back().depth;
    NodeId farthest = root;
    std::int64_t farthest_dist = -1;
    for (std::size_t v = 0; v < n; ++v) {
      if (depth[v] == graph::kUnreachable) continue;  // other component
      min_dist[v] = std::min(min_dist[v], static_cast<std::int64_t>(depth[v]));
      if (min_dist[v] > farthest_dist) {
        farthest_dist = min_dist[v];
        farthest = static_cast<NodeId>(v);
      }
    }
    if (farthest_dist <= 0) break;  // every switch already is a root
    root = farthest;
  }
  return trees;
}

struct TreeLoads {
  // Directed load per undirected link id: the a->b and b->a directions.
  std::vector<double> ab;
  std::vector<double> ba;
};

// Adds tree-path loads for the TM, scaled by `scale` (the 1/num_trees
// demand split), onto the per-direction link loads. up_load/down_load are
// per non-root node v: demand crossing the tree edge (v, parent(v)) in the
// child->parent / parent->child direction.
void accumulate_tree_loads(const topo::Topology& t,
                           const topo::CsrBfsTree& tree,
                           const std::vector<double>& up_load,
                           const std::vector<double>& down_load, double scale,
                           TreeLoads& loads) {
  for (const auto v : tree.order) {
    const auto parent = tree.parent[static_cast<std::size_t>(v)];
    if (parent == graph::kInvalidNode) continue;  // root
    const auto e =
        static_cast<std::size_t>(tree.parent_edge[static_cast<std::size_t>(v)]);
    // parent -> v is the down direction.
    const bool down_is_ab = t.g.edges()[e].a == parent;
    auto& down_slot = down_is_ab ? loads.ab[e] : loads.ba[e];
    auto& up_slot = down_is_ab ? loads.ba[e] : loads.ab[e];
    down_slot += down_load[static_cast<std::size_t>(v)] * scale;
    up_slot += up_load[static_cast<std::size_t>(v)] * scale;
  }
}

// Subtree sums in one backward pass over the BFS order (children precede
// parents when scanned in reverse).
void subtree_accumulate(const topo::CsrBfsTree& tree, std::vector<double>& x) {
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const auto v = *it;
    const auto parent = tree.parent[static_cast<std::size_t>(v)];
    if (parent != graph::kInvalidNode) {
      x[static_cast<std::size_t>(parent)] += x[static_cast<std::size_t>(v)];
    }
  }
}

NodeId lowest_common_ancestor(const topo::CsrBfsTree& tree, NodeId a,
                              NodeId b) {
  while (tree.depth[static_cast<std::size_t>(a)] >
         tree.depth[static_cast<std::size_t>(b)]) {
    a = tree.parent[static_cast<std::size_t>(a)];
  }
  while (tree.depth[static_cast<std::size_t>(b)] >
         tree.depth[static_cast<std::size_t>(a)]) {
    b = tree.parent[static_cast<std::size_t>(b)];
  }
  while (a != b) {
    a = tree.parent[static_cast<std::size_t>(a)];
    b = tree.parent[static_cast<std::size_t>(b)];
  }
  return a;
}

// Constructive lower bound: demand split 1/K over the K trees, each
// commodity routed along its tree path; lambda = worst capacity/load.
double tree_routing_lower(const topo::Topology& t, const TmView& tm,
                          const std::vector<topo::CsrBfsTree>& trees) {
  const auto n = static_cast<std::size_t>(t.num_switches());
  const auto num_links = static_cast<std::size_t>(t.num_network_links());
  TreeLoads loads;
  loads.ab.assign(num_links, 0.0);
  loads.ba.assign(num_links, 0.0);
  const double scale = 1.0 / static_cast<double>(trees.size());

  std::vector<double> up(n), down(n);
  for (const auto& tree : trees) {
    if (tm.family() == TmView::Family::kAllToAll) {
      // Closed form: for the tree edge below v, upward crossing demand is
      // (demand rooted in v's subtree) * (active racks outside) / (m - 1),
      // downward is (active racks inside) * (demand outside) / (m - 1) —
      // both from two subtree sums, no pair enumeration.
      const auto& active = tm.active();
      const auto& demand = tm.rack_demands();
      const auto m = static_cast<double>(active.size());
      double total = 0.0;
      std::vector<double> act_cnt(n, 0.0), act_dem(n, 0.0);
      for (std::size_t i = 0; i < active.size(); ++i) {
        act_cnt[static_cast<std::size_t>(active[i])] += 1.0;
        act_dem[static_cast<std::size_t>(active[i])] += demand[i];
        total += demand[i];
      }
      subtree_accumulate(tree, act_cnt);
      subtree_accumulate(tree, act_dem);
      for (std::size_t v = 0; v < n; ++v) {
        up[v] = act_dem[v] * (m - act_cnt[v]) / (m - 1.0);
        down[v] = act_cnt[v] * (total - act_dem[v]) / (m - 1.0);
      }
    } else {
      // Explicit pairs: textbook path-difference trick. The path s -> t
      // climbs to the LCA then descends, so +demand at the endpoint and
      // -demand at the LCA turns subtree sums into per-edge path loads.
      std::fill(up.begin(), up.end(), 0.0);
      std::fill(down.begin(), down.end(), 0.0);
      for (const auto& c : tm.commodities()) {
        const auto l = lowest_common_ancestor(tree, c.src_tor, c.dst_tor);
        up[static_cast<std::size_t>(c.src_tor)] += c.demand;
        up[static_cast<std::size_t>(l)] -= c.demand;
        down[static_cast<std::size_t>(c.dst_tor)] += c.demand;
        down[static_cast<std::size_t>(l)] -= c.demand;
      }
      subtree_accumulate(tree, up);
      subtree_accumulate(tree, down);
    }
    accumulate_tree_loads(t, tree, up, down, scale, loads);
  }

  double lambda = 1.0;  // hose clamp: the virtual NIC edges cap lambda at 1
  for (std::size_t e = 0; e < num_links; ++e) {
    if (loads.ab[e] > 0.0) lambda = std::min(lambda, 1.0 / loads.ab[e]);
    if (loads.ba[e] > 0.0) lambda = std::min(lambda, 1.0 / loads.ba[e]);
  }
  return lambda;
}

// Total directed capacity over a lower bound on the TM's capacity
// consumption (sum of demand * distance): Moore-ball mean distance for the
// implicit all-to-all family, per-pair BFS-tree depth gaps for explicit
// pairs (dist(s, t) >= |depth(s) - depth(t)| in any BFS tree).
double path_length_upper(const topo::Topology& t, const TmView& tm,
                         const std::vector<topo::CsrBfsTree>& trees) {
  const double total_cap = 2.0 * static_cast<double>(t.num_network_links());

  double min_consumption = 0.0;
  if (tm.family() == TmView::Family::kAllToAll) {
    const auto m = static_cast<int>(tm.active().size());
    if (m < 2) return kInf;
    int max_degree = 1;
    for (NodeId u = 0; u < t.num_switches(); ++u) {
      max_degree = std::max(max_degree, t.g.degree(u));
    }
    const double mean_dist =
        graph::moore_bound_mean_distance_subset(m, max_degree);
    min_consumption = tm.total_demand() * mean_dist;
  } else {
    for (const auto& c : tm.commodities()) {
      double dist_lb = 1.0;  // src != dst, so at least one hop
      for (const auto& tree : trees) {
        const auto ds = tree.depth[static_cast<std::size_t>(c.src_tor)];
        const auto dt = tree.depth[static_cast<std::size_t>(c.dst_tor)];
        if (ds == graph::kUnreachable || dt == graph::kUnreachable) {
          continue;
        }
        dist_lb = std::max(dist_lb, static_cast<double>(ds > dt ? ds - dt
                                                                : dt - ds));
      }
      min_consumption += c.demand * dist_lb;
    }
  }
  return min_consumption > 0.0 ? total_cap / min_consumption : kInf;
}

// First switch with demand — the seed for tree-root selection.
NodeId first_demand_switch(const TmView& tm) {
  if (tm.family() == TmView::Family::kAllToAll) {
    return tm.active().empty() ? 0 : tm.active().front();
  }
  return tm.commodities().empty() ? 0 : tm.commodities().front().src_tor;
}

// True if any commodity's endpoints sit in different connected components.
bool demand_crosses_components(const topo::Topology& t, const TmView& tm) {
  const auto comp = graph::connected_components(t.g).id;
  if (tm.family() == TmView::Family::kAllToAll) {
    const auto& active = tm.active();
    for (std::size_t i = 1; i < active.size(); ++i) {
      if (comp[static_cast<std::size_t>(active[i])] !=
          comp[static_cast<std::size_t>(active[0])]) {
        return true;
      }
    }
    return false;
  }
  for (const auto& c : tm.commodities()) {
    if (comp[static_cast<std::size_t>(c.src_tor)] !=
        comp[static_cast<std::size_t>(c.dst_tor)]) {
      return true;
    }
  }
  return false;
}

}  // namespace

ThroughputBracket throughput_bracket(const topo::Topology& t,
                                     const TmView& tm,
                                     const BracketOptions& opts) {
  ThroughputBracket out;
  if (t.num_switches() == 0 || tm.empty()) return out;  // [0, 0], like GK

  const bool connected = graph::is_connected(t.g);
  if (!connected && demand_crosses_components(t, tm)) {
    // Exact answer: nothing can cross a void.
    out.upper = 0.0;
    out.upper_node_cut = 0.0;
    out.upper_spectral_cut = 0.0;
    out.upper_path_length = 0.0;
    out.status = partitioned_error(
        "TM demand crosses disconnected components of ", t.name);
    return out;
  }

  const auto incident_cap = incident_capacity(t);
  const auto out_d = tm.hose_out_demand(t.num_switches());
  const auto in_d = tm.hose_in_demand(t.num_switches());

  const int num_trees =
      std::max(1, std::min(opts.num_trees, t.num_switches()));
  const auto trees = spread_trees(t, first_demand_switch(tm), num_trees);

  out.upper_node_cut =
      std::min(1.0, node_cut_upper(incident_cap, out_d, in_d));
  out.upper_spectral_cut = std::min(
      1.0, spectral_cut_upper(t, tm, opts.power_iterations, opts.seed));
  out.upper_path_length = std::min(1.0, path_length_upper(t, tm, trees));
  out.upper = std::min({out.upper_node_cut, out.upper_spectral_cut,
                        out.upper_path_length});

  // A BFS tree only spans its root's component: on a disconnected fabric
  // the constructive routing is not defined for all commodities, so the
  // (still sound) lower bound degrades to 0.
  out.lower = connected ? tree_routing_lower(t, tm, trees) : 0.0;

  if (audit_enabled()) {
    FLEXNETS_CHECK_LE(out.lower, out.upper + 1e-9,
                      "throughput bracket inverted (lower > upper) on ",
                      t.name);
  }
  out.lower = std::min(out.lower, out.upper);
  return out;
}

}  // namespace flexnets::flow
