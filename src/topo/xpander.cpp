#include "topo/xpander.hpp"

#include <cassert>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "topo/jellyfish.hpp"

namespace flexnets::topo {

namespace {

// The lift construction's edge list in canonical (meta-pair, port) order.
std::vector<graph::Edge> xpander_links(int network_degree, int lift,
                                       std::uint64_t seed) {
  assert(network_degree >= 1 && lift >= 1);
  const int meta = network_degree + 1;
  Rng rng(splitmix64(seed ^ 0x587061ULL));  // "Xpa"
  std::vector<graph::Edge> links;
  links.reserve(static_cast<std::size_t>(meta) * (meta - 1) / 2 *
                static_cast<std::size_t>(lift));
  std::vector<int> perm(static_cast<std::size_t>(lift));
  for (int i = 0; i < meta; ++i) {
    for (int j = i + 1; j < meta; ++j) {
      std::iota(perm.begin(), perm.end(), 0);
      rng.shuffle(perm);
      for (int a = 0; a < lift; ++a) {
        links.push_back({i * lift + a, j * lift + perm[a]});
      }
    }
  }
  return links;
}

std::string xpander_name(int network_degree, int lift) {
  return "xpander(d=" + std::to_string(network_degree) +
         ",lift=" + std::to_string(lift) + ")";
}

}  // namespace

Xpander xpander(int network_degree, int lift, int servers_per_switch,
                std::uint64_t seed) {
  const int n = (network_degree + 1) * lift;

  Xpander x;
  x.network_degree = network_degree;
  x.lift = lift;
  x.topo = Topology(
      xpander_name(network_degree, lift),
      graph::Graph(n, xpander_links(network_degree, lift, seed)),
      std::vector<int>(static_cast<std::size_t>(n), servers_per_switch));
  return x;
}

Topology xpander_for(int num_switches, int network_degree,
                     int servers_per_switch, std::uint64_t seed) {
  if (num_switches % (network_degree + 1) == 0) {
    auto x = xpander(network_degree, num_switches / (network_degree + 1),
                     servers_per_switch, seed);
    return std::move(x.topo);
  }
  auto t = jellyfish(num_switches, network_degree, servers_per_switch, seed);
  t.name = "xpander-rrg(n=" + std::to_string(num_switches) +
           ",d=" + std::to_string(network_degree) + ")";
  return t;
}

}  // namespace flexnets::topo
