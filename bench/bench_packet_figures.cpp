// Regenerates the paper's section 6 packet results -- Figs 7(b) to 15 --
// and the section 6.3 / 7.1 packet ablations from one table.
//
// A figure is a banner plus blocks. A block lists its contenders (a
// topology plus edits to the packet options, or an MPTCP subflow count),
// the x values it sweeps, the traffic, the rate rule and the seed. Every
// (block, x, contender) point is one independent, seeded packet simulation
// and one point of the figure's sharded, journaled grid
// (bench::run_grid_resilient_sharded, key prefix = figure name). The
// tables print from the grid's records, whose doubles round-trip exactly,
// so in-process, --threads, --workers and --resume runs print the same
// bytes.
//
// Flags:
//   --figure <name>    run this figure; may repeat (default: all, in table
//                      order). Names: fig7b fig7c fig9 fig10 fig11 fig12
//                      fig13 fig14 fig15 ablation_routing
//                      ablation_transport ablation_hyb ablation_mptcp
//   --threads N        points computed side by side in this process
//   --workers N        points sharded across N worker subprocesses
//   --max-attempts N, --journal <path>, --resume <path>
//                      the shared resilient-sweep flags (bench/util.hpp)
// REPRO_FULL=1 selects the paper-scale parameters.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_model.hpp"
#include "metrics/fct_tracker.hpp"
#include "topo/xpander.hpp"
#include "transport/mptcp.hpp"
#include "util.hpp"
#include "workload/flow_size.hpp"

using namespace flexnets;

namespace {

// Every topology a figure can name. All are built once per process.
enum class Topo {
  kFatTree,       // section 6.4 baseline (also the ProjecToR-style one)
  kXpander,       // section 6.4 Xpander at ~2/3 of the fat-tree's cost
  kFatTree77,     // the 77%-fat-tree of Fig 11
  kProjector,     // the ProjecToR-style Xpander of Figs 13-14
  kLargeFatTree,  // Fig 15's pair
  kLargeXpander,
};

struct Topologies {
  bench::Section64 s64;
  topo::FatTree ft77;
  topo::Topology projector;
  topo::FatTree large_ft;
  topo::Topology large_xp;

  explicit Topologies(bool full)
      : s64(bench::section64_topologies(full)),
        // Keep ~77% of the network ports by stripping cores (k=16: 35/64
        // cores; k=8: 9/16 cores).
        ft77(full ? topo::fat_tree_stripped(16, 35)
                  : topo::fat_tree_stripped(8, 9)),
        // Paper: 128 ToRs x 16 network ports, 8 servers each. Scaled: 32
        // ToRs x 8 network ports, 4 servers each.
        projector(full ? topo::xpander_for(128, 16, 8, /*seed=*/1)
                       : topo::xpander_for(32, 8, 4, /*seed=*/1)),
        // Paper: k=24 fat-tree (720 switches, 3456 servers) vs 322
        // switches of 24 ports (11 servers + 13 network ports). Scaled:
        // k=12 (180 switches, 432 servers) vs 81 switches of 12 ports.
        large_ft(full ? topo::fat_tree(24) : topo::fat_tree(12)),
        large_xp(full ? topo::xpander_for(322, 13, 11, /*seed=*/1)
                      : topo::xpander_for(81, 6, 6, /*seed=*/1)) {}

  [[nodiscard]] const topo::Topology& get(Topo t) const {
    switch (t) {
      case Topo::kFatTree: return s64.fat_tree.topo;
      case Topo::kXpander: return s64.xpander;
      case Topo::kFatTree77: return ft77.topo;
      case Topo::kProjector: return projector;
      case Topo::kLargeFatTree: return large_ft.topo;
      case Topo::kLargeXpander: return large_xp;
    }
    return s64.xpander;
  }
};

[[nodiscard]] bool is_fat_tree(Topo t) {
  return t == Topo::kFatTree || t == Topo::kFatTree77 ||
         t == Topo::kLargeFatTree;
}

struct Contender {
  std::string label;
  Topo topo = Topo::kXpander;
  routing::SourceRouteConfig routing{};  // mode, switch policy, Q, flowlet gap
  RateBps server_rate = sim::LinkConfig{}.rate;
  // Marking threshold on network and server links alike.
  Bytes ecn_threshold = sim::LinkConfig{}.ecn_threshold;
  TimeNs min_rto = transport::DctcpConfig{}.min_rto;
  int mptcp_subflows = 0;  // > 0: MPTCP over KSP with this many subflows
};

Contender route(std::string label, Topo topo, routing::RoutingMode mode) {
  Contender c{std::move(label), topo};
  c.routing.mode = mode;
  return c;
}

// The fat-tree baseline against an Xpander under ECMP and under `mode`.
std::vector<Contender> trio(Topo ft, Topo xp, routing::RoutingMode mode) {
  return {route("fat-tree", ft, routing::RoutingMode::kEcmp),
          route("xpander-ECMP", xp, routing::RoutingMode::kEcmp),
          route(mode == routing::RoutingMode::kVlb ? "xpander-VLB"
                                                   : "xpander-HYB",
                xp, mode)};
}

// Which server pairs exchange flows. Fat-trees take the first fraction of
// racks, expanders a random fraction (rack seed 5); permutations use seed
// 21.
enum class Traffic {
  kTwoRacks,  // `per_rack` servers on each of two adjacent racks
  kAllToAll,  // A2A over every rack
  kA2A,       // A2A over a fraction of racks
  kPermute,   // a rack permutation over a fraction of racks
  kSkew,      // Skew(0.04, 0.77)
};

// What x sweeps.
enum class Axis { kRate, kFraction };

// How a point's rate becomes the aggregate arrival rate.
enum class RateRule {
  kPerActiveServer,  // rate x servers on the pairs' active racks
  // Fig 7(b): the rate is an aggregate over the 2 x per_rack active
  // servers, applied per server on the two active racks.
  kSplitAggregate,
  kAggregate,  // the rate is the aggregate
};

enum class Printer {
  kThreePanels,      // the paper's three standard panels
  kShortTailMicros,  // Fig 12's single panel, in microseconds
  kRows,             // one labelled row per contender (the ablations)
};

// kRows' last columns.
enum class Extra { kNone, kHealth, kDropsEcn };

// Members with no other default carry `{}` (as Contender::routing does),
// so initializers that leave them out do not trip
// -Wmissing-field-initializers.
struct Block {
  std::string heading{};  // printed before the table when nonempty
  std::vector<Contender> contenders{};
  std::vector<double> xs{};
  Axis axis = Axis::kRate;
  double rate = 0;      // when x sweeps the fraction
  double fraction = 0;  // kA2A / kPermute, when x sweeps the rate
  Traffic traffic = Traffic::kAllToAll;
  int per_rack = 0;             // kTwoRacks
  std::uint64_t skew_seed = 0;  // kSkew
  bool hull_sizes = false;      // Pareto-HULL instead of pFabric web search
  RateRule rule = RateRule::kPerActiveServer;
  std::uint64_t seed = 0;
  Printer printer = Printer::kThreePanels;
  std::string x_label{};               // the x column of the panels
  std::vector<std::string> columns{};  // kRows' header
  Extra extra = Extra::kNone;
  std::string trailer{};  // printed after the table
};

struct Figure {
  std::string name;  // --figure value and journal key prefix
  std::string title;
  std::string description;
  std::vector<Block> blocks;
};

// One grid point: a contender at one x of one block.
struct Point {
  const Block* block;
  double x;
  const Contender* contender;
};

using Values = std::vector<std::pair<std::string, double>>;

std::unique_ptr<workload::PairDistribution> make_pairs(
    const Block& b, double x, Topo id, const topo::Topology& t) {
  const double fraction = b.axis == Axis::kFraction ? x : b.fraction;
  const auto racks = [&] {
    return is_fat_tree(id)
               ? workload::first_fraction_racks(t, fraction)
               : workload::random_fraction_racks(t, fraction, /*seed=*/5);
  };
  switch (b.traffic) {
    case Traffic::kTwoRacks: {
      // Fat-tree: two racks in one pod. Xpander: two adjacent ToRs.
      if (is_fat_tree(id)) return workload::two_rack_pairs(t, 0, 1, b.per_rack);
      const auto e = t.g.edge(0);
      return workload::two_rack_pairs(t, e.a, e.b, b.per_rack);
    }
    case Traffic::kAllToAll:
      return workload::all_to_all_pairs(t, t.tors());
    case Traffic::kA2A:
      return workload::all_to_all_pairs(t, racks());
    case Traffic::kPermute:
      return workload::permutation_pairs(t, racks(), /*seed=*/21);
    case Traffic::kSkew:
      return workload::skew_pairs(t, 0.04, 0.77, b.skew_seed);
  }
  return nullptr;
}

double arrival_rate(const Block& b, double x, int active_servers) {
  const double rate = b.axis == Axis::kRate ? x : b.rate;
  switch (b.rule) {
    case RateRule::kPerActiveServer:
      return rate * active_servers;
    case RateRule::kSplitAggregate:
      return rate / (2 * b.per_rack) * active_servers;
    case RateRule::kAggregate:
      return rate;
  }
  return rate;
}

// MPTCP over KSP: every flow of core::packet_experiment_flows opens as a
// logical MPTCP flow striped over `subflows` k-shortest paths.
core::PacketResult run_mptcp(const topo::Topology& t,
                             const workload::PairDistribution& pairs,
                             const workload::FlowSizeDistribution& sizes,
                             const core::PacketSimOptions& opts,
                             int subflows) {
  const auto flows = core::packet_experiment_flows(pairs, sizes, opts);
  sim::PacketNetwork net(t, opts.net);
  transport::MptcpConfig mcfg;
  mcfg.subflows = subflows;
  transport::MptcpEngine mptcp(mcfg, net.engine());
  net.set_flow_opener([&](const workload::FlowSpec& spec) {
    const auto id = mptcp.open(
        net.host_node(spec.src_server), net.host_node(spec.dst_server),
        net.tor_of_server(spec.src_server), net.tor_of_server(spec.dst_server),
        spec.size);
    mptcp.start(id);
  });
  net.run(flows, opts.hard_stop);

  std::vector<metrics::FlowRecord> records;
  for (std::size_t i = 0; i < mptcp.num_logical(); ++i) {
    const auto& lf = mptcp.logical(static_cast<std::int32_t>(i));
    records.push_back({lf.start_time, lf.completion_time, lf.size});
  }
  core::PacketResult r;
  r.fct = metrics::summarize(records, opts.window_begin, opts.window_end,
                             workload::kShortFlowThreshold);
  r.drops = net.total_drops();
  r.ecn_marks = net.total_ecn_marks();
  return r;
}

Values simulate(const Point& p, const Topologies& topos, bool full) {
  const Block& b = *p.block;
  const Contender& c = *p.contender;
  const topo::Topology& t = topos.get(c.topo);
  const auto pairs = make_pairs(b, p.x, c.topo, t);
  const auto sizes = b.hull_sizes ? workload::pareto_hull()
                                  : workload::pfabric_web_search();
  core::PacketSimOptions opts = bench::default_packet_options(full);
  opts.arrival_rate =
      arrival_rate(b, p.x, bench::active_server_count(t, *pairs));
  opts.net.routing = c.routing;
  opts.net.server_link.rate = c.server_rate;
  opts.net.network_link.ecn_threshold = c.ecn_threshold;
  opts.net.server_link.ecn_threshold = c.ecn_threshold;
  opts.net.transport.min_rto = c.min_rto;
  opts.seed = b.seed;
  const auto r =
      c.mptcp_subflows > 0
          ? run_mptcp(t, *pairs, *sizes, opts, c.mptcp_subflows)
          : core::run_packet_experiment(t, *pairs, *sizes, opts);
  return {{"avg_fct_ms", r.fct.avg_fct_ms},
          {"p99_short_fct_ms", r.fct.p99_short_fct_ms},
          {"avg_long_tput_gbps", r.fct.avg_long_tput_gbps},
          {"incomplete_flows", static_cast<double>(r.fct.incomplete_flows)},
          {"drops", static_cast<double>(r.drops)},
          {"ecn_marks", static_cast<double>(r.ecn_marks)}};
}

// The values the printers read, back from a grid record.
core::PacketResult from_record(const core::JournalRecord& rec) {
  core::PacketResult r;
  r.fct.avg_fct_ms = rec.value("avg_fct_ms");
  r.fct.p99_short_fct_ms = rec.value("p99_short_fct_ms");
  r.fct.avg_long_tput_gbps = rec.value("avg_long_tput_gbps");
  r.fct.incomplete_flows = static_cast<int>(rec.value("incomplete_flows"));
  r.drops = static_cast<std::uint64_t>(rec.value("drops"));
  r.ecn_marks = static_cast<std::uint64_t>(rec.value("ecn_marks"));
  return r;
}

struct SweepRow {
  double x = 0.0;
  std::vector<core::PacketResult> results;  // one per contender
};

// The first contender's health note that is not "ok", else "ok".
std::string row_health(const SweepRow& row) {
  for (const auto& r : row.results) {
    const auto note = bench::health_note(r);
    if (note != "ok") return note;
  }
  return "ok";
}

// The paper's three standard panels for a sweep: average FCT (ms),
// 99th-percentile short-flow FCT (ms), and average long-flow throughput
// (Gbps), one column per contender.
void print_three_panels(const std::string& sweep_label,
                        const std::vector<std::string>& labels,
                        const std::vector<SweepRow>& rows) {
  const struct Panel {
    const char* title;
    double (*get)(const core::PacketResult&);
  } panels[] = {
      {"(a) average FCT (ms)",
       [](const core::PacketResult& r) { return r.fct.avg_fct_ms; }},
      {"(b) 99th %-ile FCT, flows < 100KB (ms)",
       [](const core::PacketResult& r) { return r.fct.p99_short_fct_ms; }},
      {"(c) avg throughput, flows >= 100KB (Gbps)",
       [](const core::PacketResult& r) { return r.fct.avg_long_tput_gbps; }},
  };
  for (const auto& panel : panels) {
    std::printf("%s\n", panel.title);
    std::vector<std::string> header{sweep_label};
    header.insert(header.end(), labels.begin(), labels.end());
    header.push_back("health");
    TextTable t(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells{TextTable::fmt(row.x, 2)};
      for (const auto& r : row.results) {
        cells.push_back(TextTable::fmt(panel.get(r), 3));
      }
      cells.push_back(row_health(row));
      t.add_row(std::move(cells));
    }
    t.print();
    std::printf("\n");
  }
}

// Fig 12's panel: the short-flow tail in microseconds.
void print_short_tail_micros(const std::string& sweep_label,
                             const std::vector<std::string>& labels,
                             const std::vector<SweepRow>& rows) {
  std::vector<std::string> header{sweep_label};
  header.insert(header.end(), labels.begin(), labels.end());
  header.push_back("health");
  TextTable t(header);
  for (const auto& row : rows) {
    std::vector<std::string> cells{TextTable::fmt(row.x, 0)};
    for (const auto& r : row.results) {
      cells.push_back(TextTable::fmt(r.fct.p99_short_fct_ms * 1000.0, 1));
    }
    cells.push_back(row_health(row));
    t.add_row(std::move(cells));
  }
  t.print();
}

// The ablations' table: one labelled row per contender at the block's
// single x.
void print_rows(const Block& b, const SweepRow& row) {
  TextTable t(b.columns);
  for (std::size_t i = 0; i < b.contenders.size(); ++i) {
    const auto& r = row.results[i];
    std::vector<std::string> cells{b.contenders[i].label,
                                   TextTable::fmt(r.fct.avg_fct_ms, 3),
                                   TextTable::fmt(r.fct.p99_short_fct_ms, 3),
                                   TextTable::fmt(r.fct.avg_long_tput_gbps, 3)};
    if (b.extra == Extra::kHealth) cells.push_back(bench::health_note(r));
    if (b.extra == Extra::kDropsEcn) {
      cells.push_back(std::to_string(r.drops));
      cells.push_back(std::to_string(r.ecn_marks));
    }
    t.add_row(std::move(cells));
  }
  t.print();
}

std::vector<Figure> figures(bool full, const Topologies& topos) {
  using routing::RoutingMode;
  const auto pick = [full](std::vector<double> paper,
                           std::vector<double> scaled) {
    return full ? paper : scaled;
  };
  // Paper: 10 servers on two adjacent racks (5 + 5).
  const int per_rack = full ? 5 : 3;
  std::vector<Figure> out;

  // Fig 7(b) (Fig 7(a) is the schematic it illustrates): ECMP is confined
  // to the single direct link between the two racks, whose 10G saturate
  // around lambda * meansize * 8 = 10G -> ~530/s; VLB bounces traffic
  // through random via points.
  out.push_back(
      {"fig7b", "Fig 7(b)",
       "two adjacent racks: ECMP's single path vs VLB's diversity",
       {{.contenders = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kVlb),
         .xs = pick({250, 500, 1000, 2000, 3000}, {100, 250, 500, 750, 1000}),
         .traffic = Traffic::kTwoRacks,
         .per_rack = per_rack,
         .rule = RateRule::kSplitAggregate,
         .seed = 7,
         .x_label = "lambda_per_s",
         .trailer = R"(Expected shape (paper): once lambda saturates the direct link
(~500/s here), xpander-ECMP average FCT explodes while xpander-VLB
stays close to the full-bandwidth fat-tree.
)"}}});

  // Fig 7(c): all-to-all. 10G / (2.33MB * 8) ~ 536/s/server is line rate;
  // VLB halves the usable capacity, so it degrades first.
  out.push_back(
      {"fig7c", "Fig 7(c)", "all-to-all: VLB's bandwidth tax vs ECMP",
       {{.contenders = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kVlb),
         .xs = pick({50, 100, 150, 200, 250}, {40, 80, 120, 160}),
         .traffic = Traffic::kAllToAll,
         .seed = 11,
         .x_label = "rate_per_server_s",
         .trailer = R"(Expected shape (paper): ECMP tracks the fat-tree across the sweep;
VLB deteriorates as load grows because it burns 2x capacity per
byte on a uniformly loaded network.
)"}}});

  // Figs 9 and 10 sweep the fraction of active racks at 167 flow starts
  // per second per active server.
  const std::vector<double> fractions =
      pick({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
           {0.2, 0.4, 0.6, 0.8, 1.0});
  out.push_back(
      {"fig9", "Fig 9", "A2A(x) sweep, pFabric sizes, 167 flows/s/server",
       {{.contenders = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kHyb),
         .xs = fractions,
         .axis = Axis::kFraction,
         .rate = 167.0,
         .traffic = Traffic::kA2A,
         .seed = 13,
         .x_label = "fraction_active",
         .trailer = R"(Expected shape (paper): for small-to-moderate active fractions both
Xpander variants match the full-bandwidth fat-tree; at large x the
cheaper Xpander's average FCT/throughput degrade while short-flow
tail FCT stays competitive across nearly the whole range. ECMP
suffices for this uniform workload.
)"}}});
  out.push_back(
      {"fig10", "Fig 10", "Permute(x) sweep, pFabric sizes, 167 flows/s/server",
       {{.contenders = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kHyb),
         .xs = fractions,
         .axis = Axis::kFraction,
         .rate = 167.0,
         .traffic = Traffic::kPermute,
         .seed = 13,
         .x_label = "fraction_active",
         .trailer = R"(Expected shape (paper): xpander-ECMP performs extremely poorly on
permutations (rack-pair consolidation defeats shortest paths);
xpander-HYB matches the fat-tree when the active fraction is not
large and degrades gracefully beyond.
)"}}});

  // Fig 11: Permute(0.31) up to overload of the full fat-tree (paper:
  // 120K/s at 1024 servers ~ 380/s per active server).
  auto fig11 = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kHyb);
  fig11.push_back(route("77%-fat-tree", Topo::kFatTree77, RoutingMode::kEcmp));
  out.push_back(
      {"fig11", "Fig 11", "Permute(0.31) vs arrival rate, incl. the 77%-fat-tree",
       {{.contenders = fig11,
         .xs = pick({60, 120, 190, 250, 320, 380}, {80, 160, 240, 320, 400}),
         .fraction = 0.31,
         .traffic = Traffic::kPermute,
         .seed = 29,
         .x_label = "rate_per_active_server_s",
         .trailer = R"(Expected shape (paper): xpander-HYB tracks the full-bandwidth
fat-tree closely across the sweep; the 77%-fat-tree deteriorates
much earlier; xpander-ECMP is poor throughout (permutation traffic).
)"}}});

  // Fig 12: Pareto-HULL flows (mean ~100 KB) allow much higher rates (paper:
  // 3M flow starts/s at 1024 servers ~ 9.4K/s per active server).
  out.push_back(
      {"fig12", "Fig 12", "A2A(0.31), Pareto-HULL sizes: short-flow tail FCT (us)",
       {{.heading = "(99th %-ile FCT for flows < 100KB, in MICROseconds)",
         .contenders = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kHyb),
         .xs = pick({1500, 3000, 4500, 6000, 7500, 9000},
                    {1000, 2000, 4000, 6000, 8000}),
         .fraction = 0.31,
         .traffic = Traffic::kA2A,
         .hull_sizes = true,
         .seed = 31,
         .printer = Printer::kShortTailMicros,
         .x_label = "rate_per_active_server_s",
         .trailer = R"(
Expected shape (paper): with RTT-bound small flows, Xpander's
shorter paths yield a LOWER short-flow tail than the fat-tree;
ECMP and HYB are equivalent here (A2A is uniform; most flows stay
below the Q threshold).
)"}}});

  // Figs 13 and 14: 128 ToRs with 16 static network ports (vs ProjecToR's
  // 16 dynamic ones) against the full k=16 fat-tree. Panels (a)/(b) give
  // the access links effectively unlimited rate, as ProjecToR's analysis
  // does; panel (c) models them. SUBSTITUTION (DESIGN.md): Skew(0.04,
  // 0.77) stands in for ProjecToR's non-public rack-pair trace, as the
  // paper itself simplifies it.
  const auto projector = [&](std::vector<double> xs, std::uint64_t skew_seed,
                             std::uint64_t seed, std::string trailer) {
    std::vector<Block> blocks;
    for (const bool server_bottleneck : {false, true}) {
      auto cs = trio(Topo::kFatTree, Topo::kProjector, RoutingMode::kHyb);
      for (auto& c : cs) {
        c.server_rate = server_bottleneck ? 10 * kGbps : 200 * kGbps;
      }
      blocks.push_back(
          {.heading = server_bottleneck
                          ? ">>> server-switch links at line rate (panel c)"
                          : ">>> server-level bottlenecks ignored (panels a, b)",
           .contenders = cs,
           .xs = xs,
           .traffic = Traffic::kSkew,
           .skew_seed = skew_seed,
           .seed = seed,
           .x_label = "rate_per_server_s",
           .trailer = server_bottleneck ? trailer : ""});
    }
    return blocks;
  };
  out.push_back(
      {"fig13", "Fig 13",
       "ProjecToR-style comparison (Skew(0.04,0.77) stands in for the "
       "Microsoft trace)",
       projector(pick({2, 4, 6, 8, 11, 14}, {8, 16, 32, 48, 64}), 17, 37,
                 R"(Expected shape (paper): with server bottlenecks ignored, Xpander-HYB
achieves up to ~90% lower average and tail FCT than the fat-tree as
load rises (the fat-tree hits its 8 ToR uplinks; Xpander has 16).
With server bottlenecks modeled, the full-bandwidth fat-tree leaves
no room to improve and Xpander matches it.
)")});
  // A different skew seed than Fig 13's draws a different hot-rack set.
  out.push_back(
      {"fig14", "Fig 14", "Skew(0.04, 0.77), ProjecToR-style configuration",
       projector(pick({4, 8, 12, 16, 20, 24}, {8, 16, 32, 48, 64}), 41, 43,
                 R"(Expected shape (paper): largely similar to Fig 13 -- Xpander-HYB
dominates the fat-tree when ToR uplinks are the bottleneck, and
matches it when server NICs bind first.
)")});

  // Fig 15: the skew comparison at larger scale, headed by the pair's
  // sizes and cost; the paper sweeps to 80K flow starts/s at 3456 servers
  // (~23/s/server).
  const auto& ft = topos.large_ft.topo;
  const auto& xp = topos.large_xp;
  char sizes[256];
  std::snprintf(
      sizes, sizeof sizes,
      "fat-tree: %d switches, %d servers | xpander: %d switches, %d servers\n"
      "switch-count ratio: %.0f%%, network-port cost ratio: %.0f%%\n",
      ft.num_switches(), ft.num_servers(), xp.num_switches(), xp.num_servers(),
      100.0 * xp.num_switches() / ft.num_switches(),
      100.0 * cost::network_cost(xp) / cost::network_cost(ft));
  out.push_back(
      {"fig15", "Fig 15", "Skew(0.04,0.77) at larger scale, ~45% of cost",
       {{.heading = sizes,
         .contenders = trio(Topo::kLargeFatTree, Topo::kLargeXpander,
                            RoutingMode::kHyb),
         .xs = pick({4, 8, 12, 16, 20, 23}, {8, 16, 24, 32, 40}),
         .traffic = Traffic::kSkew,
         .skew_seed = 53,
         .seed = 59,
         .x_label = "rate_per_server_s",
         .trailer = R"(Expected shape (paper): xpander-HYB matches the full-bandwidth
fat-tree; xpander-ECMP fares better than at small scale but still
degrades at the highest rates; cost-efficiency improves with scale.
)"}}});

  // The ablations run on the section 6.4 Xpander, one labelled row per
  // contender. Permute(0.5) and A2A(1.0) discriminate between routing
  // schemes: rack-consolidated flows are ECMP's worst case, uniform load
  // VLB's.
  const auto hotspot_and_uniform =
      [](std::vector<std::string> headings, std::vector<Contender> cs,
         double rate, std::uint64_t seed, std::vector<std::string> columns,
         Extra extra, std::string trailer) {
        const Block permute{.heading = headings[0],
                            .contenders = cs,
                            .xs = {rate},
                            .fraction = 0.5,
                            .traffic = Traffic::kPermute,
                            .seed = seed,
                            .printer = Printer::kRows,
                            .columns = columns,
                            .extra = extra,
                            .trailer = "\n"};
        Block a2a = permute;
        a2a.heading = headings[1];
        a2a.traffic = Traffic::kAllToAll;
        a2a.trailer = "\n" + trailer;
        return std::vector<Block>{permute, a2a};
      };

  // Section 7.1's design space: the six source-routing modes plus the
  // least-queue switch policy.
  std::vector<Contender> schemes{
      route("ECMP", Topo::kXpander, RoutingMode::kEcmp),
      route("VLB", Topo::kXpander, RoutingMode::kVlb),
      route("HYB (Q=100KB)", Topo::kXpander, RoutingMode::kHyb),
      route("HYB-ECN", Topo::kXpander, RoutingMode::kHybEcn),
      route("KSP (k=4)", Topo::kXpander, RoutingMode::kKsp),
      route("SPRAY", Topo::kXpander, RoutingMode::kSpray),
      route("ECMP+leastqueue", Topo::kXpander, RoutingMode::kEcmp)};
  schemes.back().routing.switch_policy = routing::SwitchPolicy::kLeastQueue;
  out.push_back(
      {"ablation_routing", "Ablation: routing schemes",
       "ECMP / VLB / HYB / HYB-ECN / KSP / SPRAY / least-queue",
       hotspot_and_uniform(
           {">>> Permute(0.5): rack-consolidated hotspots",
            ">>> A2A(1.0): uniform load"},
           schemes, 150.0, 71,
           {"scheme", "avg_FCT_ms", "p99_short_ms", "long_tput_Gbps",
            "health"},
           Extra::kHealth,
           R"(Expected: on Permute, ECMP is worst and anything that spreads
(VLB/HYB/KSP/least-queue) wins; on uniform A2A, VLB pays its 2x
bandwidth tax while shortest-path schemes (ECMP/KSP/spray) lead.
HYB is the only scheme near the front on BOTH -- the paper's point.
)")});

  // Transport: what the DCTCP choice buys, on A2A over every rack with
  // HYB -- the configuration section 6's conclusions rest on.
  const auto hyb_with = [](std::string label, Bytes ecn, TimeNs min_rto) {
    Contender c = route(std::move(label), Topo::kXpander, RoutingMode::kHyb);
    c.ecn_threshold = ecn;
    c.min_rto = min_rto;
    return c;
  };
  const Block transport{.xs = {100.0},
                        .traffic = Traffic::kAllToAll,
                        .seed = 67,
                        .printer = Printer::kRows,
                        .extra = Extra::kDropsEcn};
  Block ecn = transport;
  ecn.heading = "(1) ECN marking threshold (min RTO fixed at 200us)";
  ecn.contenders = {
      hyb_with("none (drop-based)", 1'000'000'000, 200 * kMicrosecond),
      hyb_with("5 pkts (7.5KB)", 7'500, 200 * kMicrosecond),
      hyb_with("20 pkts (30KB, paper)", 30'000, 200 * kMicrosecond),
      hyb_with("80 pkts (120KB)", 120'000, 200 * kMicrosecond)};
  ecn.columns = {"K", "avg_FCT_ms", "p99_short_ms", "long_tput_Gbps", "drops",
                 "ecn_marks"};
  ecn.trailer = R"(
Expected: without ECN the sender fills queues until drops (high
tail FCT); very shallow marking sacrifices long-flow throughput;
the paper's K=20 balances both.

)";
  Block rto = transport;
  rto.heading = "(2) minimum RTO (K fixed at 20 pkts)";
  rto.contenders = {hyb_with("200us", 30'000, 200 * kMicrosecond),
                    hyb_with("1ms", 30'000, 1 * kMillisecond),
                    hyb_with("10ms", 30'000, 10 * kMillisecond)};
  rto.columns = {"min_RTO", "avg_FCT_ms", "p99_short_ms", "long_tput_Gbps",
                 "drops", "ecn_marks"};
  rto.trailer = R"(
Expected: at datacenter RTTs (tens of us), a large RTO floor turns
every tail drop into a millisecond-scale stall, inflating the
short-flow tail by an order of magnitude.
)";
  out.push_back({"ablation_transport", "Ablation: transport",
                 "ECN threshold and min-RTO sensitivity (Xpander + HYB, A2A)",
                 {ecn, rto}});

  // Section 6.3's HYB knobs on the adjacent-rack hotspot HYB exists to
  // fix, at an aggregate rate that clearly saturates the direct link.
  const auto hyb_knobs = [](std::string label, Bytes q, TimeNs gap) {
    Contender c = route(std::move(label), Topo::kXpander, RoutingMode::kHyb);
    c.routing.hyb_threshold = q;
    c.routing.flowlet_gap = gap;
    return c;
  };
  const Block hotspot{.xs = {full ? 1500.0 : 750.0},
                      .traffic = Traffic::kTwoRacks,
                      .per_rack = per_rack,
                      .rule = RateRule::kAggregate,
                      .seed = 61,
                      .printer = Printer::kRows,
                      .extra = Extra::kHealth};
  Block q_sweep = hotspot;
  q_sweep.heading = "(1) Q-threshold sweep (flowlet gap fixed at 50us)";
  const Bytes inf = std::numeric_limits<Bytes>::max();
  for (const Bytes q : {Bytes{0}, 10 * kKB, 100 * kKB, 1 * kMB, inf}) {
    q_sweep.contenders.push_back(
        hyb_knobs(q == 0     ? "0 (pure VLB)"
                  : q == inf ? "inf (pure ECMP)"
                             : std::to_string(q),
                  q, 50 * kMicrosecond));
  }
  q_sweep.columns = {"Q_bytes", "avg_FCT_ms", "p99_short_FCT_ms",
                     "long_tput_Gbps", "health"};
  q_sweep.trailer = R"(
Expected: pure ECMP collapses (single direct link); Q around the
paper's 100KB keeps short flows on short paths while long flows
spread; very large Q degrades toward ECMP.

)";
  Block gap_sweep = hotspot;
  gap_sweep.heading = "(2) flowlet-gap sweep (Q fixed at 100KB)";
  for (const TimeNs gap : {10 * kMicrosecond, 50 * kMicrosecond,
                           200 * kMicrosecond, 1000 * kMicrosecond}) {
    gap_sweep.contenders.push_back(
        hyb_knobs(TextTable::fmt(to_micros(gap), 0), 100 * kKB, gap));
  }
  gap_sweep.columns = {"flowlet_gap_us", "avg_FCT_ms", "p99_short_FCT_ms",
                       "long_tput_Gbps", "health"};
  gap_sweep.trailer = R"(
Expected: tiny gaps re-route aggressively (reordering risk, more
dupacks); very large gaps pin flowlets to stale paths; 50us (the
paper's setting) sits in the sweet spot.
)";
  out.push_back({"ablation_hyb", "Ablation: HYB design knobs",
                 "Q threshold and flowlet gap on the adjacent-rack hotspot",
                 {q_sweep, gap_sweep}});

  // MPTCP over k-shortest paths, the prior art for routing expanders
  // (section 6 intro), against single-path DCTCP.
  std::vector<Contender> transports{
      route("DCTCP + ECMP", Topo::kXpander, RoutingMode::kEcmp),
      route("DCTCP + HYB", Topo::kXpander, RoutingMode::kHyb)};
  for (const int subflows : {2, 4}) {
    Contender c = route("MPTCP-KSP x" + std::to_string(subflows),
                        Topo::kXpander, RoutingMode::kKsp);
    c.routing.ksp_k = subflows;
    c.mptcp_subflows = subflows;
    transports.push_back(c);
  }
  out.push_back(
      {"ablation_mptcp", "Ablation: MPTCP-over-KSP vs HYB",
       "prior-art multipath transport vs the paper's simple scheme",
       hotspot_and_uniform(
           {">>> Permute(0.5)", ">>> A2A(1.0)"}, transports, 150.0,
           core::PacketSimOptions{}.seed,
           {"scheme", "avg_FCT_ms", "p99_short_ms", "long_tput_Gbps"},
           Extra::kNone,
           R"(Expected (paper section 6): MPTCP over k-shortest paths performs
well, but simple HYB reaches comparable territory -- the paper's
argument that expander routing does not require multipath transport
or k-shortest-path forwarding state.
)")});
  return out;
}

// The --figure values, in argv order.
std::vector<std::string> parse_figure_flags(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--figure") == 0 && i + 1 < argc) {
      out.emplace_back(argv[++i]);
    } else if (std::strncmp(argv[i], "--figure=", 9) == 0) {
      out.emplace_back(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--figure") == 0) {
      std::fprintf(stderr, "error: --figure wants a value\n");
      std::exit(2);
    }
  }
  return out;
}

// The figure's grid: every (block, x, contender), x-major within a block.
std::vector<Point> grid_points(const Figure& f) {
  std::vector<Point> points;
  for (const Block& b : f.blocks) {
    for (const double x : b.xs) {
      for (const Contender& c : b.contenders) points.push_back({&b, x, &c});
    }
  }
  return points;
}

// Prints the figure's tables from its grid records, then its digest line.
void print_figure(const Figure& f,
                  const std::vector<core::JournalRecord>& records) {
  std::size_t next = 0;
  for (const Block& b : f.blocks) {
    if (!b.heading.empty()) std::printf("%s\n", b.heading.c_str());
    std::vector<std::string> labels;
    for (const Contender& c : b.contenders) labels.push_back(c.label);
    std::vector<SweepRow> rows;
    for (const double x : b.xs) {
      SweepRow row{x, {}};
      for (std::size_t c = 0; c < b.contenders.size(); ++c) {
        row.results.push_back(from_record(records[next++]));
      }
      rows.push_back(std::move(row));
    }
    switch (b.printer) {
      case Printer::kThreePanels:
        print_three_panels(b.x_label, labels, rows);
        break;
      case Printer::kShortTailMicros:
        print_short_tail_micros(b.x_label, labels, rows);
        break;
      case Printer::kRows:
        print_rows(b, rows.front());
        break;
    }
    std::fputs(b.trailer.c_str(), stdout);
  }
  bench::print_digest_line(f.name, bench::grid_digest(records),
                           records.size(), bench::count_failed(records));
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = bench::parse_threads(argc, argv);
  const auto flags = bench::parse_resilient_flags(argc, argv);
  const auto shard = bench::parse_shard_flags(argc, argv);
  const bool full = core::repro_full();
  const Topologies topos(full);
  const auto table = figures(full, topos);

  // A worker builds only the figure whose leases it serves.
  const auto wanted = shard.worker_grid.empty()
                          ? parse_figure_flags(argc, argv)
                          : std::vector<std::string>{shard.worker_grid};
  for (const auto& name : wanted) {
    if (std::ranges::none_of(table,
                             [&](const Figure& f) { return f.name == name; })) {
      std::fprintf(stderr, "error: unknown --figure '%s'; known:",
                   name.c_str());
      for (const auto& f : table) std::fprintf(stderr, " %s", f.name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  bench::ResilientState state;
  // Workers never journal: the coordinator alone writes the merged file.
  if (shard.worker_grid.empty()) bench::init_resilient_state(flags, &state);
  for (const auto& f : table) {
    if (!wanted.empty() && std::ranges::find(wanted, f.name) == wanted.end()) {
      continue;
    }
    bench::banner(f.title, f.description);
    const auto points = grid_points(f);
    print_figure(f, bench::run_grid_resilient_sharded(
                        argc, argv, points.size(), threads, f.name, &state,
                        flags, shard, [&](std::size_t i) {
                          return simulate(points[i], topos, full);
                        }));
  }
  return 0;
}
