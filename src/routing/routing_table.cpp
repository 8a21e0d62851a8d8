#include "routing/routing_table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::routing {

namespace {

// Audit pass: every table entry must be a real neighbor lying on a
// shortest path (one hop closer to dst), and a hop set may be empty only
// at the destination itself or on a disconnected node. Catches stale or
// corrupted tables before they misroute packets. `offset` and `hops` are
// one destination's CSR slot.
void audit_next_hops(const graph::Graph& g, NodeId dst,
                     const std::vector<std::int32_t>& offset,
                     const std::vector<NodeId>& hops) {
  const auto dist = graph::bfs_distances(g, dst);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::int32_t lo = offset[u];
    const std::int32_t hi = offset[u + 1];
    if (u == dst || dist[u] == graph::kUnreachable) {
      FLEXNETS_CHECK(lo == hi, "next hops present at dst=", dst,
                     " for terminal/unreachable node ", u);
      continue;
    }
    FLEXNETS_CHECK(lo < hi, "no next hop from node ", u,
                   " toward reachable dst ", dst);
    for (std::int32_t i = lo; i < hi; ++i) {
      const NodeId h = hops[static_cast<std::size_t>(i)];
      FLEXNETS_CHECK(h >= 0 && h < g.num_nodes(),
                     "next hop out of range: ", h);
      FLEXNETS_CHECK_EQ(dist[h], dist[u] - 1, "next hop ", h, " from ", u,
                        " does not advance toward dst ", dst);
    }
  }
}

}  // namespace

EcmpTable EcmpTable::build(const graph::Graph& g,
                           const std::vector<NodeId>& dsts) {
  const NodeId n = g.num_nodes();
  EcmpTable t;
  t.slot_of_dst_.assign(static_cast<std::size_t>(n), -1);
  t.slots_.reserve(dsts.size());
  // One BFS scratch for every destination; each slot is filled straight
  // from it, sized by the previous slot (near-regular graphs repeat).
  std::vector<int> dist;
  std::vector<NodeId> queue;
  std::size_t hops_hint = 0;
  for (const NodeId dst : dsts) {
    FLEXNETS_CHECK(dst >= 0 && dst < n, "ECMP destination out of range: ",
                   dst);
    if (t.slot_of_dst_[dst] >= 0) continue;  // duplicate destination
    graph::bfs_distances(g, dst, dist, queue);
    PerDst slot;
    slot.offset.resize(static_cast<std::size_t>(n) + 1);
    slot.hops.reserve(hops_hint);
    for (NodeId u = 0; u < n; ++u) {
      const std::size_t begin = slot.hops.size();
      slot.offset[u] = static_cast<std::int32_t>(begin);
      if (u == dst || dist[u] == graph::kUnreachable) continue;
      // The neighbors one hop closer to dst, sorted and de-duplicated so
      // the set does not depend on edge order or parallel edges.
      for (const NodeId v : g.neighbors(u)) {
        if (dist[v] == dist[u] - 1) slot.hops.push_back(v);
      }
      const auto first = slot.hops.begin() + static_cast<std::ptrdiff_t>(begin);
      std::sort(first, slot.hops.end());
      slot.hops.erase(std::unique(first, slot.hops.end()), slot.hops.end());
    }
    slot.offset[n] = static_cast<std::int32_t>(slot.hops.size());
    hops_hint = slot.hops.size();
    if (audit_enabled()) audit_next_hops(g, dst, slot.offset, slot.hops);
    t.slot_of_dst_[dst] = static_cast<std::int32_t>(t.slots_.size());
    t.slots_.push_back(std::move(slot));
  }
  return t;
}

std::span<const NodeId> EcmpTable::next_hops(NodeId dst, NodeId at) const {
  FLEXNETS_DCHECK(has_dst(dst), "next_hops for unknown dst ", dst);
  const PerDst& slot = slots_[static_cast<std::size_t>(slot_of_dst_[dst])];
  const auto lo = static_cast<std::size_t>(slot.offset[at]);
  const auto hi = static_cast<std::size_t>(slot.offset[at + 1]);
  return {slot.hops.data() + lo, hi - lo};
}

}  // namespace flexnets::routing
