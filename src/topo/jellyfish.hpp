// Jellyfish (Singla et al., NSDI 2012): a uniform-random r-regular graph of
// top-of-rack switches, each hosting a fixed number of servers.
#pragma once

#include <cstdint>

#include "topo/topology.hpp"

namespace flexnets::topo {

// Random r-regular simple graph on n nodes via the Jellyfish incremental
// construction with edge-swap repair. Preconditions: n > r, n*r even.
// Deterministic in `seed`.
Topology jellyfish(int num_switches, int network_degree,
                   int servers_per_switch, std::uint64_t seed);

// Jellyfish with a fixed switch radix and a server total that need not
// divide evenly (used by the paper's Fig 6 equal-equipment comparisons):
// servers are spread round-robin (counts differ by at most one) and each
// switch uses its remaining radix as network ports. At most one switch may
// end with an unfilled port (odd port total).
Topology jellyfish_same_equipment(int num_switches, int radix,
                                  int total_servers, std::uint64_t seed);

}  // namespace flexnets::topo
