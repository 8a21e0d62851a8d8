// A datacenter topology: a switch-level graph plus the number of servers
// attached to each switch. Servers are numbered globally and assigned to
// switches in switch-id order (switch 0's servers first, and so on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace flexnets::topo {

using graph::NodeId;

struct Topology {
  std::string name;
  graph::Graph g;  // switch-to-switch network links

  Topology() = default;
  // `servers_per_switch` is indexed by switch id and must have one
  // non-negative entry per node of `g` (FLEXNETS_CHECK).
  Topology(std::string name, graph::Graph g,
           std::vector<int> servers_per_switch);

  [[nodiscard]] int num_switches() const { return g.num_nodes(); }
  [[nodiscard]] int num_servers() const { return first_server_.back(); }
  [[nodiscard]] int num_network_links() const { return g.num_edges(); }
  [[nodiscard]] const std::vector<int>& servers_per_switch() const {
    return servers_per_switch_;
  }

  // Switches that host at least one server (the ToRs), ascending.
  [[nodiscard]] std::vector<NodeId> tors() const;

  // Switch hosting global server id `s` (binary search over the server
  // offsets), and the first server id of switch `sw` (O(1)).
  [[nodiscard]] NodeId switch_of_server(int server) const;
  [[nodiscard]] int first_server_of_switch(NodeId sw) const {
    return first_server_[static_cast<std::size_t>(sw)];
  }

  // Sanity check: every switch's (network degree + servers) fits `radix`.
  [[nodiscard]] bool fits_radix(int radix) const;

  // Fingerprint of the wiring: the switch count, then every edge's
  // endpoints in edge-id order. The fluid engine's cache audits compare
  // it; tests pin it per generator.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  // Read-only after construction, so the offsets below can never go stale.
  std::vector<int> servers_per_switch_;
  // Prefix sums: switch s hosts servers [first_server_[s],
  // first_server_[s + 1]). Size num_switches + 1.
  std::vector<int> first_server_{0};
};

}  // namespace flexnets::topo
