#include "topo/fat_tree.hpp"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace flexnets::topo {

int FatTreeLayout::pod_of(NodeId s) const {
  const int half = k / 2;
  if (is_edge(s)) return static_cast<int>(s) / half;
  if (is_agg(s)) return static_cast<int>(s - num_edge) / half;
  return -1;  // cores belong to no pod
}

// Links in canonical (pod, edge, agg) then (stripe round-robin, pod) order.
FatTree fat_tree_stripped(int k, int cores_kept) {
  assert(k >= 2 && k % 2 == 0);
  const int half = k / 2;
  const int num_edge = k * half;
  const int num_agg = k * half;
  const int full_cores = half * half;
  assert(cores_kept >= 1 && cores_kept <= full_cores);

  const int n = num_edge + num_agg + cores_kept;
  std::string name = cores_kept == full_cores
                         ? "fat-tree(k=" + std::to_string(k) + ")"
                         : "fat-tree(k=" + std::to_string(k) + ",cores=" +
                               std::to_string(cores_kept) + "/" +
                               std::to_string(full_cores) + ")";
  // Edge switches host k/2 servers each.
  std::vector<int> servers(static_cast<std::size_t>(n), 0);
  for (NodeId e = 0; e < num_edge; ++e) servers[e] = half;

  std::vector<graph::Edge> links;
  links.reserve(static_cast<std::size_t>(num_edge) * half +
                static_cast<std::size_t>(cores_kept) * k);

  // Edge <-> aggregation, full bipartite within each pod.
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        links.push_back({pod * half + e, num_edge + pod * half + a});
      }
    }
  }

  // Aggregation <-> core: core c (of the full (k/2)^2) connects to the
  // (c / half)-th aggregation switch of every pod. Keeping a prefix of core
  // ids strips cores evenly across stripes only when cores_kept is a
  // multiple of half; we instead interleave so stripes lose cores uniformly:
  // walk stripes round-robin.
  int added = 0;
  for (int off = 0; off < half && added < cores_kept; ++off) {
    for (int stripe = 0; stripe < half && added < cores_kept; ++stripe) {
      const NodeId core = num_edge + num_agg + added;
      for (int pod = 0; pod < k; ++pod) {
        links.push_back({num_edge + pod * half + stripe, core});
      }
      ++added;
    }
  }
  FatTree ft;
  ft.layout = {k, num_edge, num_agg, cores_kept};
  ft.topo = Topology(std::move(name), graph::Graph(n, std::move(links)),
                     std::move(servers));
  return ft;
}

FatTree fat_tree(int k) { return fat_tree_stripped(k, (k / 2) * (k / 2)); }

}  // namespace flexnets::topo
