#include "sim/pdes/partition.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace flexnets::sim::pdes {

Partition partition_topology(const topo::Topology& topo, int num_lps,
                             std::uint64_t seed) {
  const int num_switches = topo.num_switches();
  const int num_servers = topo.num_servers();
  FLEXNETS_CHECK(num_switches > 0, "cannot partition an empty topology");
  num_lps = std::clamp(num_lps, 1, num_switches);

  Partition part;
  part.num_lps = num_lps;
  part.lp_of_node.assign(
      static_cast<std::size_t>(num_switches + num_servers), -1);

  // Seeded shuffle of the switch ids; the first num_lps become BFS seeds
  // and the shuffled order also serves as the deterministic fallback for
  // switches unreachable from every seed (disconnected topologies).
  std::vector<graph::NodeId> order(static_cast<std::size_t>(num_switches));
  for (int i = 0; i < num_switches; ++i) order[static_cast<std::size_t>(i)] = i;
  Rng rng(splitmix64(seed ^ 0x9de5'70e5ULL));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_u64(i)]);
  }

  std::vector<std::deque<graph::NodeId>> frontier(
      static_cast<std::size_t>(num_lps));
  std::vector<int> lp_size(static_cast<std::size_t>(num_lps), 0);
  auto claim = [&](graph::NodeId sw, int lp) {
    part.lp_of_node[static_cast<std::size_t>(sw)] = lp;
    frontier[static_cast<std::size_t>(lp)].push_back(sw);
    ++lp_size[static_cast<std::size_t>(lp)];
  };
  for (int lp = 0; lp < num_lps; ++lp) {
    claim(order[static_cast<std::size_t>(lp)], lp);
  }

  // Round-robin BFS growth: each turn, the smallest-so-far LP expands one
  // node from its frontier. Ties and neighbor order are deterministic
  // (graph adjacency order), so the result is reproducible.
  std::size_t next_fallback = static_cast<std::size_t>(num_lps);
  int assigned = num_lps;
  while (assigned < num_switches) {
    bool grew = false;
    for (int lp = 0; lp < num_lps && assigned < num_switches; ++lp) {
      auto& f = frontier[static_cast<std::size_t>(lp)];
      while (!f.empty()) {
        const graph::NodeId sw = f.front();
        graph::NodeId unclaimed = graph::kInvalidNode;
        for (const auto e : topo.g.incident(sw)) {
          const graph::NodeId nb = topo.g.edge(e).other(sw);
          if (part.lp_of_node[static_cast<std::size_t>(nb)] < 0) {
            unclaimed = nb;
            break;
          }
        }
        if (unclaimed == graph::kInvalidNode) {
          f.pop_front();  // exhausted: every neighbor already claimed
          continue;
        }
        claim(unclaimed, lp);
        ++assigned;
        grew = true;
        break;
      }
    }
    if (!grew) {
      // Every frontier is exhausted but switches remain: the topology is
      // disconnected. Assign the next unclaimed switch (in shuffled
      // order) to the smallest LP and resume.
      while (next_fallback < order.size() &&
             part.lp_of_node[static_cast<std::size_t>(
                 order[next_fallback])] >= 0) {
        ++next_fallback;
      }
      FLEXNETS_CHECK(next_fallback < order.size(),
                     "partition accounting mismatch");
      const int smallest = static_cast<int>(
          std::min_element(lp_size.begin(), lp_size.end()) -
          lp_size.begin());
      claim(order[next_fallback], smallest);
      ++assigned;
    }
  }

  // Hosts are co-located with their ToR so access links stay LP-internal.
  int server = 0;
  for (graph::NodeId sw = 0; sw < num_switches; ++sw) {
    for (int i = 0; i < topo.servers_per_switch()[sw]; ++i, ++server) {
      part.lp_of_node[static_cast<std::size_t>(num_switches + server)] =
          part.lp_of_node[static_cast<std::size_t>(sw)];
    }
  }
  return part;
}

}  // namespace flexnets::sim::pdes
