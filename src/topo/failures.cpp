#include "topo/failures.hpp"

#include <cassert>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::topo {

Topology with_failed_links(const Topology& t, double fraction,
                           std::uint64_t seed) {
  return with_failed_links(t, fraction, seed, FailureOptions{});
}

Topology with_failed_links(const Topology& t, double fraction,
                           std::uint64_t seed, const FailureOptions& opt) {
  assert(fraction >= 0.0 && fraction < 1.0);
  const int total = t.num_network_links();
  int to_remove = static_cast<int>(std::floor(fraction * total));

  std::vector<graph::EdgeId> order(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(splitmix64(seed ^ 0xfa11edULL));
  rng.shuffle(order);

  const std::vector<char> no_dead_switch(
      static_cast<std::size_t>(t.num_switches()), 0);
  std::vector<char> removed(static_cast<std::size_t>(total), 0);

  for (const graph::EdgeId e : order) {
    if (to_remove == 0) break;
    removed[e] = 1;
    if (!opt.preserve_connectivity ||
        graph::survivors_connected(t.g, removed, no_dead_switch)) {
      --to_remove;
    } else {
      removed[e] = 0;  // cut edge; keep it
    }
  }

  std::vector<graph::Edge> kept;
  for (graph::EdgeId e = 0; e < total; ++e) {
    if (!removed[e]) kept.push_back(t.g.edge(e));
  }
  return Topology(t.name + "+failures(" +
                      std::to_string(static_cast<int>(fraction * 100)) + "%)",
                  graph::Graph(t.num_switches(), std::move(kept)),
                  t.servers_per_switch());
}

Topology with_failed_switches(const Topology& t, int count,
                              std::uint64_t seed, const FailureOptions& opt) {
  assert(count >= 0 && count < t.num_switches());
  std::vector<graph::NodeId> order(static_cast<std::size_t>(t.num_switches()));
  for (graph::NodeId n = 0; n < t.num_switches(); ++n) {
    order[static_cast<std::size_t>(n)] = n;
  }
  Rng rng(splitmix64(seed ^ 0x5fa11edULL));
  rng.shuffle(order);

  const std::vector<char> no_dead_edge(
      static_cast<std::size_t>(t.g.num_edges()), 0);
  std::vector<char> dead(static_cast<std::size_t>(t.num_switches()), 0);
  int budget = count;
  for (const graph::NodeId n : order) {
    if (budget == 0) break;
    if (!opt.allow_tor_failures && t.servers_per_switch()[n] > 0) continue;
    dead[n] = 1;
    if (opt.preserve_connectivity &&
        !graph::survivors_connected(t.g, no_dead_edge, dead)) {
      dead[n] = 0;  // would partition the survivors; skip
      continue;
    }
    --budget;
  }

  std::vector<graph::Edge> kept;
  for (const auto& ed : t.g.edges()) {
    if (!dead[ed.a] && !dead[ed.b]) kept.push_back(ed);
  }
  std::vector<int> servers = t.servers_per_switch();
  for (graph::NodeId n = 0; n < t.num_switches(); ++n) {
    if (dead[n]) servers[n] = 0;
  }
  return Topology(
      t.name + "+switch-failures(" + std::to_string(count - budget) + ")",
      graph::Graph(t.num_switches(), std::move(kept)), std::move(servers));
}

}  // namespace flexnets::topo
