#include "topo/toy.hpp"

#include <utility>
#include <vector>

#include "topo/fat_tree.hpp"

namespace flexnets::topo {

ToyTopology toy_section41() {
  // Embedded k=6 fat-tree: 45 switches (18 edge, 18 agg, 9 core), edge
  // switches expose 3 ports each (normally server-facing) = 54 ports.
  FatTree ft = fat_tree(6);
  const int ft_switches = ft.topo.num_switches();  // 45

  ToyTopology toy;
  std::vector<int> servers(static_cast<std::size_t>(ft_switches + 9), 0);

  // Copy fat-tree wiring; its switches keep ids [0, 45).
  std::vector<graph::Edge> links = ft.topo.g.edges();

  // Active ToRs are ids [45, 54), each with 6 servers and 6 network ports.
  for (int i = 0; i < 9; ++i) {
    const NodeId tor = ft_switches + i;
    toy.active_tors.push_back(tor);
    servers[tor] = 6;
  }

  // Wire each fat-tree edge switch's 3 exposed ports to active ToRs in any
  // convenient manner (paper: "connected in any convenient manner"): port p
  // of edge switch e goes to active ToR (e * 3 + p) mod 9, spreading each
  // ToR's 6 links across 6 distinct edge switches.
  for (NodeId e = 0; e < ft.layout.num_edge; ++e) {
    for (int p = 0; p < 3; ++p) {
      const NodeId tor = ft_switches + (static_cast<int>(e) * 3 + p) % 9;
      links.push_back({e, tor});
    }
  }
  toy.topo = Topology("toy-4.1",
                      graph::Graph(ft_switches + 9, std::move(links)),
                      std::move(servers));
  return toy;
}

}  // namespace flexnets::topo
