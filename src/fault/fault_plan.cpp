#include "fault/fault_plan.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/algorithms.hpp"

namespace flexnets::fault {

namespace {

const char* kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kLinkUp:
      return "link-up";
    case FaultKind::kSwitchDown:
      return "switch-down";
    case FaultKind::kSwitchUp:
      return "switch-up";
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kLinkLossy:
      return "link-lossy";
    case FaultKind::kLinkFlap:
      return "link-flap";
    case FaultKind::kLinkRestore:
      return "link-restore";
  }
  return "?";
}

std::optional<FaultKind> kind_from_name(const std::string& s) {
  if (s == "link-down") return FaultKind::kLinkDown;
  if (s == "link-up") return FaultKind::kLinkUp;
  if (s == "switch-down") return FaultKind::kSwitchDown;
  if (s == "switch-up") return FaultKind::kSwitchUp;
  if (s == "link-degrade") return FaultKind::kLinkDegrade;
  if (s == "link-lossy") return FaultKind::kLinkLossy;
  if (s == "link-flap") return FaultKind::kLinkFlap;
  if (s == "link-restore") return FaultKind::kLinkRestore;
  return std::nullopt;
}

// Range checks for gray parameters, shared between parse (line-prefixed
// errors) and check_against (event-prefixed errors). drop_prob excludes 1
// and duty excludes 0 so a gray link always retains positive fluid
// capacity — total loss is what kLinkDown / degrade-to-0 are for.
Status check_gray_params(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kLinkDegrade:
      if (!(e.p1 >= 0.0 && e.p1 <= 1.0)) {
        return invalid_input_error("degrade fraction ", e.p1,
                                   " outside [0, 1]");
      }
      break;
    case FaultKind::kLinkLossy:
      if (!(e.p1 >= 0.0 && e.p1 < 1.0)) {
        return invalid_input_error("drop probability ", e.p1,
                                   " outside [0, 1)");
      }
      break;
    case FaultKind::kLinkFlap:
      if (!(e.p1 > 0.0)) {
        return invalid_input_error("flap period ", e.p1, " not positive");
      }
      if (!(e.p2 > 0.0 && e.p2 < 1.0)) {
        return invalid_input_error("flap duty ", e.p2, " outside (0, 1)");
      }
      break;
    default:
      break;
  }
  return {};
}

}  // namespace

bool is_link_kind(FaultKind k) {
  return k != FaultKind::kSwitchDown && k != FaultKind::kSwitchUp;
}

bool is_down_kind(FaultKind k) {
  return k == FaultKind::kLinkDown || k == FaultKind::kSwitchDown;
}

bool is_gray_kind(FaultKind k) {
  return k == FaultKind::kLinkDegrade || k == FaultKind::kLinkLossy ||
         k == FaultKind::kLinkFlap;
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
}

void FaultPlan::add(FaultEvent e) {
  const auto it = std::upper_bound(
      events_.begin(), events_.end(), e,
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  events_.insert(it, e);
}

TimeNs FaultPlan::first_time() const {
  return events_.empty() ? -1 : events_.front().time;
}

TimeNs FaultPlan::last_time() const {
  return events_.empty() ? -1 : events_.back().time;
}

bool FaultPlan::has_gray() const {
  for (const auto& e : events_) {
    if (is_gray_kind(e.kind)) return true;
  }
  return false;
}

FaultPlan FaultPlan::random(const topo::Topology& t,
                            const RandomFaultOptions& opt,
                            std::uint64_t seed) {
  FLEXNETS_CHECK(opt.window_end >= opt.window_begin && opt.window_begin >= 0,
                 "FaultPlan::random: bad failure window [", opt.window_begin,
                 ", ", opt.window_end, "]");
  Rng rng(splitmix64(seed ^ 0xfa017b1aULL));
  std::vector<char> dead_edge(static_cast<std::size_t>(t.g.num_edges()), 0);
  std::vector<char> dead_switch(static_cast<std::size_t>(t.num_switches()), 0);

  FaultPlan plan;
  auto schedule = [&](FaultKind down, FaultKind up, std::int32_t id) {
    const TimeNs at = rng.uniform_int(opt.window_begin, opt.window_end);
    plan.add({at, down, id});
    if (opt.repair_after >= 0) plan.add({at + opt.repair_after, up, id});
  };

  // Switch victims first: a dead switch takes all its links with it, so
  // link victims are then drawn connectivity-aware on what remains.
  std::vector<graph::NodeId> switches(
      static_cast<std::size_t>(t.num_switches()));
  for (graph::NodeId n = 0; n < t.num_switches(); ++n) {
    switches[static_cast<std::size_t>(n)] = n;
  }
  rng.shuffle(switches);
  int switch_budget = opt.switch_failures;
  for (const auto n : switches) {
    if (switch_budget == 0) break;
    if (!opt.allow_tor_failures && t.servers_per_switch()[n] > 0) continue;
    dead_switch[n] = 1;
    if (opt.preserve_connectivity &&
        !graph::survivors_connected(t.g, dead_edge, dead_switch)) {
      dead_switch[n] = 0;  // would partition the survivors; skip
      continue;
    }
    schedule(FaultKind::kSwitchDown, FaultKind::kSwitchUp, n);
    --switch_budget;
  }

  std::vector<graph::EdgeId> edges(static_cast<std::size_t>(t.g.num_edges()));
  for (graph::EdgeId e = 0; e < t.g.num_edges(); ++e) {
    edges[static_cast<std::size_t>(e)] = e;
  }
  rng.shuffle(edges);
  int link_budget = opt.link_failures;
  for (const auto e : edges) {
    if (link_budget == 0) break;
    const auto& ed = t.g.edge(e);
    if (dead_switch[ed.a] || dead_switch[ed.b]) continue;  // already down
    dead_edge[e] = 1;
    if (opt.preserve_connectivity &&
        !graph::survivors_connected(t.g, dead_edge, dead_switch)) {
      dead_edge[e] = 0;  // cut link; keep it
      continue;
    }
    schedule(FaultKind::kLinkDown, FaultKind::kLinkUp, e);
    --link_budget;
  }

  // Gray victims continue down the same shuffled edge list, after the
  // binary victims, so plans with all gray budgets at zero stay
  // bit-identical to pre-gray plans for the same seed (no extra rng draws
  // happen unless a gray victim is actually scheduled).
  std::vector<char> gray_edge(static_cast<std::size_t>(t.g.num_edges()), 0);
  auto schedule_gray = [&](FaultKind kind, std::int32_t id, double p1,
                           double p2) {
    const TimeNs at = rng.uniform_int(opt.window_begin, opt.window_end);
    plan.add({at, kind, id, p1, p2});
    if (opt.repair_after >= 0) {
      plan.add({at + opt.repair_after, FaultKind::kLinkRestore, id});
    }
  };
  auto draw_gray = [&](int budget, FaultKind kind, double p1, double p2) {
    for (const auto e : edges) {
      if (budget == 0) break;
      const auto& ed = t.g.edge(e);
      if (dead_edge[e] || gray_edge[e]) continue;
      if (dead_switch[ed.a] || dead_switch[ed.b]) continue;
      if (kind == FaultKind::kLinkDegrade && p1 == 0.0 &&
          opt.preserve_connectivity) {
        // Degrading to rate 0 cuts the link for real; honor the same
        // connectivity contract as the binary victims, and keep the edge
        // marked dead so later degrade-0 draws account for it.
        dead_edge[e] = 1;
        if (!graph::survivors_connected(t.g, dead_edge, dead_switch)) {
          dead_edge[e] = 0;
          continue;
        }
      }
      gray_edge[e] = 1;
      schedule_gray(kind, static_cast<std::int32_t>(e), p1, p2);
      --budget;
    }
  };
  draw_gray(opt.lossy_links, FaultKind::kLinkLossy, opt.loss_prob, 0.0);
  draw_gray(opt.degraded_links, FaultKind::kLinkDegrade, opt.degrade_fraction,
            0.0);
  draw_gray(opt.flapping_links, FaultKind::kLinkFlap,
            static_cast<double>(opt.flap_period), opt.flap_duty);
  return plan;
}

Status FaultPlan::check_against(const topo::Topology& t) const {
  std::vector<char> edge_down(static_cast<std::size_t>(t.g.num_edges()), 0);
  std::vector<char> edge_gray(static_cast<std::size_t>(t.g.num_edges()), 0);
  std::vector<char> switch_down(static_cast<std::size_t>(t.num_switches()), 0);
  TimeNs prev = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& e = events_[i];
    if (e.time < 0) {
      return invalid_input_error("event ", i, ": negative time ", e.time);
    }
    if (e.time < prev) {
      return invalid_input_error("event ", i, ": out of order at ", e.time,
                                 " after ", prev);
    }
    prev = e.time;
    if (is_link_kind(e.kind)) {
      if (e.id < 0 || e.id >= t.g.num_edges()) {
        return invalid_input_error("event ", i, ": link id ", e.id,
                                   " out of range [0, ", t.g.num_edges(),
                                   ") for topology '", t.name, "'");
      }
      auto& down = edge_down[static_cast<std::size_t>(e.id)];
      auto& gray = edge_gray[static_cast<std::size_t>(e.id)];
      if (is_gray_kind(e.kind)) {
        if (const auto st = check_gray_params(e); !st.ok()) {
          return invalid_input_error("event ", i, ": ", st.message());
        }
        if (down || gray) {
          return invalid_input_error("event ", i, ": ", kind_name(e.kind),
                                     " of link ", e.id, " while it is ",
                                     down ? "down" : "already gray");
        }
        gray = 1;
        continue;
      }
      if (e.kind == FaultKind::kLinkRestore) {
        if (!gray) {
          return invalid_input_error("event ", i,
                                     ": link-restore of link ", e.id,
                                     " which is not gray");
        }
        gray = 0;
        continue;
      }
      if (gray) {
        return invalid_input_error("event ", i, ": ", kind_name(e.kind),
                                   " of link ", e.id,
                                   " while it is gray (restore it first)");
      }
      if (is_down_kind(e.kind) == static_cast<bool>(down)) {
        return invalid_input_error("event ", i, ": ", kind_name(e.kind),
                                   " of link ", e.id, " while it is ",
                                   down ? "already down" : "up");
      }
      down = is_down_kind(e.kind) ? 1 : 0;
    } else {
      if (e.id < 0 || e.id >= t.num_switches()) {
        return invalid_input_error("event ", i, ": switch id ", e.id,
                                   " out of range [0, ", t.num_switches(),
                                   ") for topology '", t.name, "'");
      }
      auto& down = switch_down[static_cast<std::size_t>(e.id)];
      if (is_down_kind(e.kind) == static_cast<bool>(down)) {
        return invalid_input_error("event ", i, ": ", kind_name(e.kind),
                                   " of switch ", e.id, " while it is ",
                                   down ? "already down" : "up");
      }
      down = is_down_kind(e.kind) ? 1 : 0;
    }
  }
  return {};
}

void FaultPlan::validate(const topo::Topology& t) const {
  const auto st = check_against(t);
  FLEXNETS_CHECK(st.ok(), "FaultPlan: ", st.message());
}

std::string FaultPlan::serialize() const {
  std::ostringstream os;
  os.precision(17);  // max_digits10: doubles round-trip exactly
  for (const auto& e : events_) {
    os << e.time << ' ' << kind_name(e.kind) << ' ' << e.id;
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkLossy:
        os << ' ' << e.p1;
        break;
      case FaultKind::kLinkFlap:
        // The period is a TimeNs stored in a double; print it as the
        // integer it is so the text form stays readable.
        os << ' ' << static_cast<long long>(e.p1) << ' ' << e.p2;
        break;
      default:
        break;
    }
    os << '\n';
  }
  return os.str();
}

StatusOr<FaultPlan> FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    FaultEvent e;
    std::string kind;
    ls >> e.time >> kind >> e.id;
    if (ls.fail()) {
      return invalid_input_error("line ", line_no,
                                 ": expected '<time_ns> <kind> <id>', got '",
                                 line, "'");
    }
    const auto k = kind_from_name(kind);
    if (!k) {
      return invalid_input_error("line ", line_no, ": unknown event kind '",
                                 kind, "'");
    }
    e.kind = *k;
    switch (e.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkLossy:
        ls >> e.p1;
        if (ls.fail()) {
          return invalid_input_error("line ", line_no, ": ", kind,
                                     " needs a parameter, got '", line, "'");
        }
        break;
      case FaultKind::kLinkFlap: {
        long long period = 0;
        ls >> period >> e.p2;
        if (ls.fail()) {
          return invalid_input_error(
              "line ", line_no,
              ": link-flap needs '<period_ns> <duty>', got '", line, "'");
        }
        e.p1 = static_cast<double>(period);
        break;
      }
      default:
        break;
    }
    if (const auto st = check_gray_params(e); !st.ok()) {
      return invalid_input_error("line ", line_no, ": ", st.message());
    }
    if (!plan.events_.empty() && e.time < plan.events_.back().time) {
      return invalid_input_error("line ", line_no,
                                 ": events not time-sorted (", e.time,
                                 " after ", plan.events_.back().time, ")");
    }
    plan.events_.push_back(e);
  }
  return plan;
}

Status save_fault_plan(const std::string& path, const FaultPlan& plan) {
  std::ofstream out(path);
  if (!out) return invalid_input_error("cannot open ", path, " for writing");
  const auto text = plan.serialize();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return invalid_input_error("write to ", path, " failed");
  return {};
}

StatusOr<FaultPlan> load_fault_plan(const std::string& path,
                                    const topo::Topology* target) {
  std::ifstream in(path);
  if (!in) return invalid_input_error("cannot open ", path);
  std::ostringstream text;
  text << in.rdbuf();
  auto plan = FaultPlan::parse(text.str());
  if (!plan.ok()) {
    return invalid_input_error(path, ": ", plan.status().message());
  }
  if (target != nullptr) {
    if (const auto st = plan->check_against(*target); !st.ok()) {
      return invalid_input_error(path, ": ", st.message());
    }
  }
  return plan;
}

}  // namespace flexnets::fault
