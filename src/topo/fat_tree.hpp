// Three-layer fat-tree (Al-Fares et al., SIGCOMM 2008) and oversubscribed
// variants produced by stripping core switches (paper Fig 1 / the
// "77%-fat-tree" of Fig 11).
#pragma once

#include "topo/topology.hpp"

namespace flexnets::topo {

// Layout metadata for a fat-tree built with k-port switches (k even):
//  - k pods, each with k/2 edge switches (k/2 servers each) and k/2
//    aggregation switches;
//  - (k/2)^2 core switches.
// Switch ids: edges [0, k^2/2), aggs [k^2/2, k^2), cores [k^2, k^2+(k/2)^2).
struct FatTreeLayout {
  int k = 0;
  int num_edge = 0;
  int num_agg = 0;
  int num_core = 0;

  [[nodiscard]] bool is_edge(NodeId s) const { return s < num_edge; }
  [[nodiscard]] bool is_agg(NodeId s) const {
    return s >= num_edge && s < num_edge + num_agg;
  }
  [[nodiscard]] bool is_core(NodeId s) const { return s >= num_edge + num_agg; }
  [[nodiscard]] int pod_of(NodeId s) const;
};

struct FatTree {
  Topology topo;
  FatTreeLayout layout;
};

// Full-bandwidth fat-tree with k-port switches. Precondition: k even, >= 2.
FatTree fat_tree(int k);

// Fat-tree with only `cores_kept` of the (k/2)^2 core switches (uniformly
// striped). cores_kept in [1, (k/2)^2]. Aggregation uplinks to removed cores
// simply do not exist, oversubscribing the agg<->core stage.
FatTree fat_tree_stripped(int k, int cores_kept);

}  // namespace flexnets::topo
