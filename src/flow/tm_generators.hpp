// Traffic-matrix generators for the fluid-flow comparisons (paper section 5).
#pragma once

#include <cstdint>
#include <vector>

#include "flow/traffic_matrix.hpp"
#include "topo/topology.hpp"

namespace flexnets::flow {

// Picks `count` active racks out of the topology's ToRs, uniformly at
// random (deterministic in seed). `count` must lie in [0, #ToRs]
// (FLEXNETS_CHECK).
std::vector<topo::NodeId> pick_active_racks(const topo::Topology& t, int count,
                                            std::uint64_t seed);

// "Longest matching" TM (paper section 5, after Jyothi et al.): pair up the
// active racks with a (greedy) maximum-weight matching where weights are
// BFS hop distances, so communicating racks are far apart and rack-to-rack
// flow consolidation defeats load balancing. Each matched pair exchanges
// traffic in both directions at demand = active servers per rack.
TrafficMatrix longest_matching_tm(const topo::Topology& t,
                                  const std::vector<topo::NodeId>& active);

// Random permutation TM over the active racks: each sends its full demand
// to one other unique rack. Deterministic in seed.
TrafficMatrix random_permutation_tm(const topo::Topology& t,
                                    const std::vector<topo::NodeId>& active,
                                    std::uint64_t seed);

// All-to-all among the active racks (each ordered pair, equal split).
TrafficMatrix all_to_all_tm(const topo::Topology& t,
                            const std::vector<topo::NodeId>& active);

// Many-to-one: every active rack sends its full demand to the first one.
TrafficMatrix many_to_one_tm(const topo::Topology& t,
                             const std::vector<topo::NodeId>& active);

// One-to-many: the first active rack spreads its demand over the others.
TrafficMatrix one_to_many_tm(const topo::Topology& t,
                             const std::vector<topo::NodeId>& active);

}  // namespace flexnets::flow
