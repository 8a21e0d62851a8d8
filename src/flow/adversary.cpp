#include "flow/adversary.hpp"

#include <cassert>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"

namespace flexnets::flow {

namespace {

// Rebuilds a bidirectional matching TM from pair assignments.
TrafficMatrix tm_from_pairs(
    const topo::Topology& t,
    const std::vector<std::pair<topo::NodeId, topo::NodeId>>& pairs) {
  TrafficMatrix tm;
  tm.commodities.reserve(pairs.size() * 2);
  for (const auto& [a, b] : pairs) {
    tm.commodities.push_back(
        {a, b, static_cast<double>(t.servers_per_switch()[a])});
    tm.commodities.push_back(
        {b, a, static_cast<double>(t.servers_per_switch()[b])});
  }
  return tm;
}

}  // namespace

AdversaryResult adversarial_matching_tm(const topo::Topology& t,
                                        const std::vector<topo::NodeId>& active,
                                        int iterations, double eps,
                                        std::uint64_t seed) {
  assert(active.size() >= 4 && "need at least two pairs to swap");
  // Seed: the longest-matching heuristic, reconstructed as pair list.
  const auto seed_tm = longest_matching_tm(t, active);
  std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
  for (std::size_t i = 0; i < seed_tm.commodities.size(); i += 2) {
    pairs.emplace_back(seed_tm.commodities[i].src_tor,
                       seed_tm.commodities[i].dst_tor);
  }

  AdversaryResult result;
  result.initial_throughput = per_server_throughput(t, seed_tm, {eps});
  result.throughput = result.initial_throughput;
  result.tm = seed_tm;

  Rng rng(splitmix64(seed ^ 0xad7e25aULL));
  for (int it = 0; it < iterations && pairs.size() >= 2; ++it) {
    // 2-swap: exchange partners between two random pairs.
    const auto i = rng.next_u64(pairs.size());
    auto j = rng.next_u64(pairs.size());
    if (i == j) continue;
    auto candidate = pairs;
    std::swap(candidate[i].second, candidate[j].second);
    const auto tm = tm_from_pairs(t, candidate);
    const double tput = per_server_throughput(t, tm, {eps});
    if (tput < result.throughput) {
      result.throughput = tput;
      result.tm = tm;
      pairs = std::move(candidate);
      ++result.improvements;
    }
  }
  return result;
}

TrafficMatrix random_hose_tm(const topo::Topology& t,
                             const std::vector<topo::NodeId>& active,
                             int layers, std::uint64_t seed) {
  assert(layers >= 1 && active.size() >= 2);
  // Accumulate layered permutations, merging duplicate (src, dst) pairs.
  std::map<std::pair<topo::NodeId, topo::NodeId>, double> demand;
  Rng rng(splitmix64(seed ^ 0x405eULL));
  for (int l = 0; l < layers; ++l) {
    const auto layer = random_permutation_tm(t, active, rng());
    for (const auto& c : layer.commodities) {
      demand[{c.src_tor, c.dst_tor}] +=
          c.demand / static_cast<double>(layers);
    }
  }
  TrafficMatrix tm;
  tm.commodities.reserve(demand.size());
  for (const auto& [key, d] : demand) {
    tm.commodities.push_back({key.first, key.second, d});
  }
  return tm;
}

}  // namespace flexnets::flow
