#include "topo/dragonfly.hpp"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace flexnets::topo {

Dragonfly dragonfly(int a, int h, int servers_per_switch) {
  assert(a >= 1 && h >= 1 && servers_per_switch >= 0);
  Dragonfly df;
  df.a = a;
  df.h = h;
  const int groups = a * h + 1;
  const int n = groups * a;

  std::vector<graph::Edge> links;

  // Intra-group: complete graph on each group's a routers.
  for (int grp = 0; grp < groups; ++grp) {
    for (int i = 0; i < a; ++i) {
      for (int j = i + 1; j < a; ++j) {
        links.push_back({grp * a + i, grp * a + j});
      }
    }
  }

  // Inter-group: each group has a*h global ports (router r's ports are
  // slots r*h .. r*h+h-1). Group gi's port p connects toward group
  // (gi + p + 1) mod groups; the reverse direction lands on the matching
  // port of the peer, giving exactly one link per group pair.
  for (int gi = 0; gi < groups; ++gi) {
    for (int p = 0; p < a * h; ++p) {
      const int gj = (gi + p + 1) % groups;
      if (gi < gj) {
        // Peer port on gj that points back to gi.
        const int q = (gi - gj - 1 + groups) % groups;
        assert(q >= 0 && q < a * h);
        links.push_back({gi * a + p / h, gj * a + q / h});
      }
    }
  }
  df.topo = Topology(
      "dragonfly(a=" + std::to_string(a) + ",h=" + std::to_string(h) + ")",
      graph::Graph(n, std::move(links)),
      std::vector<int>(static_cast<std::size_t>(n), servers_per_switch));
  return df;
}

}  // namespace flexnets::topo
