#include "fault/live_state.hpp"

#include <utility>
#include <vector>

#include "common/check.hpp"

namespace flexnets::fault {

LiveState::LiveState(const topo::Topology& t)
    : topo_(&t),
      edge_down_(static_cast<std::size_t>(t.g.num_edges()), 0),
      switch_down_(static_cast<std::size_t>(t.num_switches()), 0),
      gray_(static_cast<std::size_t>(t.g.num_edges())) {}

void LiveState::apply(const FaultEvent& e) {
  FLEXNETS_CHECK(topo_ != nullptr, "LiveState used before initialization");
  if (is_gray_kind(e.kind) || e.kind == FaultKind::kLinkRestore) {
    auto& gs = gray_[static_cast<std::size_t>(e.id)];
    if (e.kind == FaultKind::kLinkRestore) {
      FLEXNETS_CHECK(gs.mode != GrayMode::kNone,
                     "LiveState: restore of non-gray link ", e.id);
      gs = GrayState{};
      --gray_count_;
      --down_count_;
      return;
    }
    FLEXNETS_CHECK(gs.mode == GrayMode::kNone &&
                       !edge_down_[static_cast<std::size_t>(e.id)],
                   "LiveState: gray fault on unhealthy link ", e.id);
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
        gs.mode = GrayMode::kDegraded;
        break;
      case FaultKind::kLinkLossy:
        gs.mode = GrayMode::kLossy;
        break;
      default:
        gs.mode = GrayMode::kFlap;
        break;
    }
    gs.p1 = e.p1;
    gs.p2 = e.p2;
    gs.since = e.time;
    ++gray_count_;
    ++down_count_;
    return;
  }
  auto& flag = is_link_kind(e.kind)
                   ? edge_down_[static_cast<std::size_t>(e.id)]
                   : switch_down_[static_cast<std::size_t>(e.id)];
  const char want = is_down_kind(e.kind) ? 1 : 0;
  FLEXNETS_CHECK(flag != want, "LiveState: redundant fault event for ",
                 is_link_kind(e.kind) ? "link " : "switch ", e.id);
  flag = want;
  down_count_ += want ? 1 : -1;
}

bool LiveState::edge_live(graph::EdgeId e) const {
  if (edge_down_[static_cast<std::size_t>(e)]) return false;
  const auto& gs = gray_[static_cast<std::size_t>(e)];
  if (gs.mode == GrayMode::kDegraded && gs.p1 == 0.0) return false;
  const auto& ed = topo_->g.edge(e);
  return switch_up(ed.a) && switch_up(ed.b);
}

graph::Graph LiveState::surviving_graph() const {
  FLEXNETS_CHECK(topo_ != nullptr, "LiveState used before initialization");
  std::vector<graph::Edge> live;
  for (graph::EdgeId e = 0; e < topo_->g.num_edges(); ++e) {
    if (edge_live(e)) live.push_back(topo_->g.edge(e));
  }
  return graph::Graph(topo_->g.num_nodes(), std::move(live));
}

std::vector<graph::NodeId> LiveState::live_tors(
    const topo::Topology& t) const {
  std::vector<graph::NodeId> out;
  for (const auto tor : t.tors()) {
    if (switch_up(tor)) out.push_back(tor);
  }
  return out;
}

}  // namespace flexnets::fault
