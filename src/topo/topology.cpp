#include "topo/topology.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/digest.hpp"

namespace flexnets::topo {

Topology::Topology(std::string name, graph::Graph g,
                   std::vector<int> servers_per_switch)
    : name(std::move(name)),
      g(std::move(g)),
      servers_per_switch_(std::move(servers_per_switch)),
      first_server_(servers_per_switch_.size() + 1, 0) {
  FLEXNETS_CHECK_EQ(servers_per_switch_.size(),
                    static_cast<std::size_t>(this->g.num_nodes()),
                    "one server count per switch");
  std::int64_t total = 0;
  for (std::size_t s = 0; s < servers_per_switch_.size(); ++s) {
    FLEXNETS_CHECK(servers_per_switch_[s] >= 0, "negative server count at ",
                   s);
    total += servers_per_switch_[s];
    FLEXNETS_CHECK(total <= std::numeric_limits<int>::max(),
                   "server total overflows the int server ids");
    first_server_[s + 1] = static_cast<int>(total);
  }
}

std::vector<NodeId> Topology::tors() const {
  std::vector<NodeId> out;
  for (NodeId s = 0; s < num_switches(); ++s) {
    if (servers_per_switch_[static_cast<std::size_t>(s)] > 0) out.push_back(s);
  }
  return out;
}

NodeId Topology::switch_of_server(int server) const {
  FLEXNETS_CHECK(server >= 0 && server < num_servers(),
                 "server id out of range: ", server);
  // First offset strictly greater than `server`, minus one: the owning
  // switch (empty switches have zero-width ranges upper_bound skips past).
  const auto it =
      std::upper_bound(first_server_.begin(), first_server_.end(), server);
  return static_cast<NodeId>((it - first_server_.begin()) - 1);
}

bool Topology::fits_radix(int radix) const {
  for (NodeId s = 0; s < num_switches(); ++s) {
    if (g.degree(s) + servers_per_switch_[static_cast<std::size_t>(s)] >
        radix) {
      return false;
    }
  }
  return true;
}

std::uint64_t Topology::digest() const {
  Digest d;
  d.mix(static_cast<std::uint64_t>(num_switches()));
  for (const auto& e : g.edges()) {
    d.mix(static_cast<std::uint64_t>(e.a));
    d.mix(static_cast<std::uint64_t>(e.b));
  }
  return d.value();
}

}  // namespace flexnets::topo
