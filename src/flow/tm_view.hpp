// Streaming/implicit traffic matrices for hyperscale evaluation.
//
// TrafficMatrix materializes every commodity — O(m²) doubles for all-to-all
// over m racks, which is what actually caps the evaluable scale (an
// all-to-all over 100k racks is 10^10 commodities; nothing may ever hold
// that list). TmView is the enumerate-on-demand replacement: the all-to-all
// family stores only the active racks and their demands and generates
// ordered pairs on the fly; O(m) families (permutation, longest-matching,
// many-to-one) stay explicit lists, wrapped from their flow/tm_generators
// builders by from_traffic_matrix. Consumers either stream commodities
// (for_each — exactly the materialized generator's enumeration order, so
// GK lambda through a TmView is bit-identical to the TrafficMatrix path)
// or use the closed-form aggregates (hose demands, demand across a cut)
// that flow/bracket.cpp evaluates without touching pairs at all.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/tm_generators.hpp"
#include "flow/traffic_matrix.hpp"
#include "topo/jellyfish.hpp"
#include "topo/topology.hpp"

namespace flexnets::flow {

class TmView {
 public:
  enum class Family {
    kAllToAll,  // implicit ordered pairs over the active racks
    kExplicit,  // materialized commodity list (O(m) families)
  };

  // All-to-all among `active` racks: ordered pair (i, j) carries
  // rack_demand[i] / (m - 1), matching all_to_all_tm. Fewer than two
  // active racks yields an empty view (same as the materialized builder).
  static TmView all_to_all(std::vector<topo::NodeId> active,
                           std::vector<double> rack_demand);

  // Wraps an explicit commodity list (demands > 0, src != dst per rack).
  static TmView explicit_pairs(std::vector<Commodity> commodities);

  // Wraps an already materialized TM (the explicit families).
  static TmView from_traffic_matrix(const TrafficMatrix& tm);

  [[nodiscard]] Family family() const { return family_; }
  [[nodiscard]] std::int64_t num_commodities() const;
  [[nodiscard]] bool empty() const { return num_commodities() == 0; }

  // Streams commodities as f(src_tor, dst_tor, demand) in the exact order
  // the materialized generators emit them. Cost is O(num_commodities());
  // callers that must stay sub-quadratic use the aggregates below instead
  // (flow/throughput.cpp additionally enforces a commodity cap before
  // streaming into a GK instance).
  template <typename F>
  void for_each(F&& f) const {
    if (family_ == Family::kAllToAll) {
      const auto m = active_.size();
      if (m < 2) return;
      for (std::size_t i = 0; i < m; ++i) {
        const double per_dst =
            rack_demand_[i] / static_cast<double>(m - 1);
        for (std::size_t j = 0; j < m; ++j) {
          if (i != j) f(active_[i], active_[j], per_dst);
        }
      }
    } else {
      for (const auto& c : commodities_) f(c.src_tor, c.dst_tor, c.demand);
    }
  }

  // ---- Closed-form aggregates (never enumerate the implicit family) ----
  //
  // These evaluate the all-to-all family analytically, so values may differ
  // from enumeration-order accumulation in the last ulps. Bounds code is
  // the intended consumer; anything needing bit-identity with the
  // materialized path must stream via for_each.

  [[nodiscard]] double total_demand() const;

  // Hose demands per switch: the sum of demands leaving / entering each
  // rack (zero for inactive switches). Size num_switches.
  [[nodiscard]] std::vector<double> hose_out_demand(
      int num_switches) const;
  [[nodiscard]] std::vector<double> hose_in_demand(int num_switches) const;

  // Total demand of commodities with src inside the cut side (in_side[sw]
  // != 0) and dst outside — the denominator of a cut upper bound.
  [[nodiscard]] double demand_across(const std::vector<char>& in_side) const;

  // Family internals, for bounds code that aggregates per rack.
  [[nodiscard]] const std::vector<topo::NodeId>& active() const {
    return active_;
  }
  [[nodiscard]] const std::vector<double>& rack_demands() const {
    return rack_demand_;
  }
  [[nodiscard]] const std::vector<Commodity>& commodities() const {
    return commodities_;
  }

 private:
  TmView() = default;

  Family family_ = Family::kExplicit;
  std::vector<topo::NodeId> active_;    // kAllToAll
  std::vector<double> rack_demand_;     // kAllToAll, parallel to active_
  std::vector<Commodity> commodities_;  // kExplicit
};

// The implicit all-to-all among `active` racks of `t`, each rack's demand
// its server count: streams exactly all_to_all_tm(t, active).
TmView all_to_all_view(const topo::Topology& t,
                       const std::vector<topo::NodeId>& active);

}  // namespace flexnets::flow

// ---- Kept because perfbench/ calls it ------------------------------------
// The benchmark was written against a separate flat topology type with its
// own generator and rack picker. These names now denote the one Topology
// and the plain functions; the next benchmark change retires them.
namespace flexnets::topo {
using CsrTopology = Topology;
inline Topology jellyfish_csr(int num_switches, int network_degree,
                              int servers_per_switch, std::uint64_t seed) {
  return jellyfish(num_switches, network_degree, servers_per_switch, seed);
}
}  // namespace flexnets::topo
namespace flexnets::flow {
inline std::vector<topo::NodeId> pick_active_racks_csr(
    const topo::Topology& t, int count, std::uint64_t seed) {
  return pick_active_racks(t, count, seed);
}
}  // namespace flexnets::flow
