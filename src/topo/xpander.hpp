// Xpander (Valadarsky et al., CoNEXT 2016): a deterministic-structure
// expander built by lifting the complete graph K_{d+1}. The network has
// d+1 "meta-nodes", each a set of `lift` switches; every pair of meta-nodes
// is joined by a perfect matching between their switch sets, so each switch
// has exactly d network ports (one toward every other meta-node).
#pragma once

#include <cstdint>

#include "topo/topology.hpp"

namespace flexnets::topo {

struct Xpander {
  Topology topo;
  int network_degree = 0;
  int lift = 0;  // switches per meta-node

  [[nodiscard]] int num_meta_nodes() const { return network_degree + 1; }
  [[nodiscard]] int meta_node_of(NodeId s) const { return s / lift; }
};

// Canonical lift construction. Switch ids are grouped by meta-node:
// meta-node m holds ids [m*lift, (m+1)*lift). Matchings between meta-node
// pairs are random permutations, deterministic in `seed`.
Xpander xpander(int network_degree, int lift, int servers_per_switch,
                std::uint64_t seed);

// Convenience used by the paper's equal-cost comparisons: an expander on
// exactly `num_switches` switches with `network_degree` network ports each.
// Uses the lift construction when (network_degree+1) divides num_switches;
// otherwise falls back to a Jellyfish-style random regular graph (labelled
// as such), which the paper reports performs identically (section 5).
Topology xpander_for(int num_switches, int network_degree,
                     int servers_per_switch, std::uint64_t seed);

}  // namespace flexnets::topo
