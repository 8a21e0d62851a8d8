#include "flow/tm_view.hpp"

#include <utility>

#include "common/check.hpp"

namespace flexnets::flow {

TmView TmView::all_to_all(std::vector<topo::NodeId> active,
                          std::vector<double> rack_demand) {
  FLEXNETS_CHECK_EQ(active.size(), rack_demand.size(),
                    "all-to-all view: one demand per active rack");
  TmView v;
  v.family_ = Family::kAllToAll;
  v.active_ = std::move(active);
  v.rack_demand_ = std::move(rack_demand);
  return v;
}

TmView TmView::explicit_pairs(std::vector<Commodity> commodities) {
  for (const auto& c : commodities) {
    FLEXNETS_CHECK(c.demand > 0.0, "commodity with non-positive demand");
    FLEXNETS_CHECK_NE(c.src_tor, c.dst_tor, "self-commodity in TM view");
  }
  TmView v;
  v.family_ = Family::kExplicit;
  v.commodities_ = std::move(commodities);
  return v;
}

TmView TmView::from_traffic_matrix(const TrafficMatrix& tm) {
  return explicit_pairs(tm.commodities);
}

std::int64_t TmView::num_commodities() const {
  if (family_ == Family::kAllToAll) {
    const auto m = static_cast<std::int64_t>(active_.size());
    return m < 2 ? 0 : m * (m - 1);
  }
  return static_cast<std::int64_t>(commodities_.size());
}

double TmView::total_demand() const {
  double sum = 0.0;
  if (family_ == Family::kAllToAll) {
    if (active_.size() < 2) return 0.0;
    for (const double d : rack_demand_) sum += d;
  } else {
    for (const auto& c : commodities_) sum += c.demand;
  }
  return sum;
}

std::vector<double> TmView::hose_out_demand(int num_switches) const {
  std::vector<double> out(static_cast<std::size_t>(num_switches), 0.0);
  if (family_ == Family::kAllToAll) {
    if (active_.size() < 2) return out;
    // Each active rack sends (m-1) * d/(m-1) = d in total.
    for (std::size_t i = 0; i < active_.size(); ++i) {
      out[static_cast<std::size_t>(active_[i])] += rack_demand_[i];
    }
  } else {
    for (const auto& c : commodities_) {
      out[static_cast<std::size_t>(c.src_tor)] += c.demand;
    }
  }
  return out;
}

std::vector<double> TmView::hose_in_demand(int num_switches) const {
  std::vector<double> in(static_cast<std::size_t>(num_switches), 0.0);
  if (family_ == Family::kAllToAll) {
    const auto m = active_.size();
    if (m < 2) return in;
    // Rack j receives d_i/(m-1) from every other active rack i:
    // (D_total - d_j) / (m - 1).
    double total = 0.0;
    for (const double d : rack_demand_) total += d;
    for (std::size_t j = 0; j < m; ++j) {
      in[static_cast<std::size_t>(active_[j])] +=
          (total - rack_demand_[j]) / static_cast<double>(m - 1);
    }
  } else {
    for (const auto& c : commodities_) {
      in[static_cast<std::size_t>(c.dst_tor)] += c.demand;
    }
  }
  return in;
}

double TmView::demand_across(const std::vector<char>& in_side) const {
  if (family_ == Family::kAllToAll) {
    const auto m = active_.size();
    if (m < 2) return 0.0;
    // Sources inside the cut send d_i/(m-1) to each of the active racks
    // outside it: D_inside * m_outside / (m - 1).
    double inside_demand = 0.0;
    std::int64_t outside_count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (in_side[static_cast<std::size_t>(active_[i])] != 0) {
        inside_demand += rack_demand_[i];
      } else {
        ++outside_count;
      }
    }
    return inside_demand * static_cast<double>(outside_count) /
           static_cast<double>(m - 1);
  }
  double sum = 0.0;
  for (const auto& c : commodities_) {
    if (in_side[static_cast<std::size_t>(c.src_tor)] != 0 &&
        in_side[static_cast<std::size_t>(c.dst_tor)] == 0) {
      sum += c.demand;
    }
  }
  return sum;
}

TmView all_to_all_view(const topo::Topology& t,
                       const std::vector<topo::NodeId>& active) {
  std::vector<double> demand;
  demand.reserve(active.size());
  for (const auto tor : active) {
    demand.push_back(static_cast<double>(t.servers_per_switch()[tor]));
  }
  return TmView::all_to_all(active, std::move(demand));
}

}  // namespace flexnets::flow
