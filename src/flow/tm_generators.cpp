#include "flow/tm_generators.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/algorithms.hpp"
#include "graph/matching.hpp"

namespace flexnets::flow {

namespace {

double rack_demand(const topo::Topology& t, topo::NodeId tor) {
  return static_cast<double>(t.servers_per_switch()[tor]);
}

}  // namespace

std::vector<topo::NodeId> pick_active_racks(const topo::Topology& t, int count,
                                            std::uint64_t seed) {
  auto tors = t.tors();
  FLEXNETS_CHECK(count >= 0 && count <= static_cast<int>(tors.size()),
                 "active rack count out of range");
  Rng rng(splitmix64(seed ^ 0xac71feULL));
  rng.shuffle(tors);
  tors.resize(static_cast<std::size_t>(count));
  return tors;
}

TrafficMatrix longest_matching_tm(const topo::Topology& t,
                                  const std::vector<topo::NodeId>& active) {
  const int m = static_cast<int>(active.size());
  // Pairwise BFS distances between active racks.
  std::vector<std::vector<double>> w(static_cast<std::size_t>(m),
                                     std::vector<double>(m, 0.0));
  for (int i = 0; i < m; ++i) {
    const auto dist = graph::bfs_distances(t.g, active[i]);
    for (int j = 0; j < m; ++j) {
      // Weight 0 keeps unreachable pairs out of the matching instead of
      // feeding -1 "distances" into the weights.
      w[i][j] = dist[active[j]] == graph::kUnreachable
                    ? 0.0
                    : static_cast<double>(dist[active[j]]);
    }
  }
  const auto pairs = graph::greedy_max_weight_matching(m, w);

  TrafficMatrix tm;
  tm.commodities.reserve(pairs.size() * 2);
  for (const auto& [i, j] : pairs) {
    if (w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] <= 0.0) {
      continue;  // unreachable (or same-rack) pair matched as filler
    }
    tm.commodities.push_back({active[i], active[j], rack_demand(t, active[i])});
    tm.commodities.push_back({active[j], active[i], rack_demand(t, active[j])});
  }
  return tm;
}

TrafficMatrix random_permutation_tm(const topo::Topology& t,
                                    const std::vector<topo::NodeId>& active,
                                    std::uint64_t seed) {
  const auto m = active.size();
  TrafficMatrix tm;
  if (m < 2) return tm;
  Rng rng(splitmix64(seed ^ 0x9e2aULL));
  // Random cyclic shift of a shuffle: guarantees a derangement (no rack
  // sends to itself) while staying a uniform-ish permutation TM.
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 0; i < m; ++i) {
    const auto src = active[order[i]];
    const auto dst = active[order[(i + 1) % m]];
    tm.commodities.push_back({src, dst, rack_demand(t, src)});
  }
  return tm;
}

TrafficMatrix all_to_all_tm(const topo::Topology& t,
                            const std::vector<topo::NodeId>& active) {
  const auto m = active.size();
  TrafficMatrix tm;
  if (m < 2) return tm;
  for (std::size_t i = 0; i < m; ++i) {
    const double per_dst =
        rack_demand(t, active[i]) / static_cast<double>(m - 1);
    for (std::size_t j = 0; j < m; ++j) {
      if (i != j) tm.commodities.push_back({active[i], active[j], per_dst});
    }
  }
  return tm;
}

TrafficMatrix many_to_one_tm(const topo::Topology& t,
                             const std::vector<topo::NodeId>& active) {
  TrafficMatrix tm;
  for (std::size_t i = 1; i < active.size(); ++i) {
    tm.commodities.push_back(
        {active[i], active[0], rack_demand(t, active[i])});
  }
  return tm;
}

TrafficMatrix one_to_many_tm(const topo::Topology& t,
                             const std::vector<topo::NodeId>& active) {
  TrafficMatrix tm;
  if (active.size() < 2) return tm;
  const double per_dst = rack_demand(t, active[0]) /
                         static_cast<double>(active.size() - 1);
  for (std::size_t i = 1; i < active.size(); ++i) {
    tm.commodities.push_back({active[0], active[i], per_dst});
  }
  return tm;
}

}  // namespace flexnets::flow
