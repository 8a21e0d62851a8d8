#include "topo/long_hop.hpp"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace flexnets::topo {

Topology long_hop(int dim, int extra, int servers_per_switch) {
  assert(dim >= 1 && dim < 26);
  assert(extra >= 0 && extra <= dim);
  const int n = 1 << dim;

  // Generators: unit vectors e_0..e_{dim-1}, then `extra` long-hop words.
  // Long-hop word k is the all-ones vector with k bits cleared from the top
  // (k = 0 -> all-ones; k = 1 -> 0111..1; ...), each of which is dense and
  // connects antipodal regions of the hypercube, halving the diameter.
  std::vector<unsigned> gens;
  gens.reserve(static_cast<std::size_t>(dim + extra));
  for (int i = 0; i < dim; ++i) gens.push_back(1u << i);
  const unsigned ones = static_cast<unsigned>(n - 1);
  for (int k = 0; k < extra; ++k) {
    unsigned w = ones;
    for (int b = 0; b < k; ++b) w &= ~(1u << (dim - 1 - b));
    gens.push_back(w);
  }

  std::vector<graph::Edge> links;
  for (unsigned u = 0; u < static_cast<unsigned>(n); ++u) {
    for (unsigned gen : gens) {
      const unsigned v = u ^ gen;
      if (u < v) {
        links.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v)});
      }
    }
  }
  return Topology(
      "longhop(dim=" + std::to_string(dim) + ",extra=" +
          std::to_string(extra) + ")",
      graph::Graph(n, std::move(links)),
      std::vector<int>(static_cast<std::size_t>(n), servers_per_switch));
}

}  // namespace flexnets::topo
