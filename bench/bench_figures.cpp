// Regenerates every table and figure of the paper from one table of rows,
// in paper order: Table 1, Observation 1, Figs 2-3, the section 4.1 toy,
// the section 5 fluid Figs 5-6, the section 6 packet Figs 7(b)-15 with
// Fig 8's flow sizes, and the section 6.3 / 7.1 packet ablations.
//
// A row that solves something runs as one sharded, journaled grid keyed by
// the row's name (bench::run_grid_resilient_sharded) and prints from the
// grid's records, whose doubles round-trip exactly, so in-process,
// --threads, --workers and --resume runs print the same bytes; it ends
// with digest lines. table1, fig3 and fig8 solve nothing and print
// directly. A row builds its topologies only when it runs, so a worker
// builds only its own row's.
//
// A fluid figure's grid holds its series one after another: point k is
// series k / n at fraction k mod n, evaluated by core::fluid_sweep_point,
// so every sub-seed is the one core::fluid_sweep draws. A packet figure is
// a banner plus blocks. A block lists its contenders (a topology plus
// edits to the packet options, or an MPTCP subflow count), the x values
// it sweeps, the traffic, the rate rule and the seed; every (block, x,
// contender) point is one independent, seeded packet simulation.
//
// Flags (any other argument exits 2, naming it):
//   --figure <name>     run this row; may repeat (default: all, in paper
//                       order). Names: table1 obs1 fig2 fig3 toy41 fig5a
//                       fig5b fig6a fig6b fig7b fig7c fig8 fig9 fig10
//                       fig11 fig12 fig13 fig14 fig15 ablation_routing
//                       ablation_transport ablation_hyb ablation_mptcp
//   --threads, --workers, --max-attempts, --journal, --resume and
//   --point-sleep-ms: the grid flags (bench::GridFlags)
// REPRO_FULL=1 selects the paper-scale parameters.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/fluid_runner.hpp"
#include "cost/cost_model.hpp"
#include "flow/dynamic_models.hpp"
#include "flow/fat_tree_model.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "metrics/fct_tracker.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/long_hop.hpp"
#include "topo/slim_fly.hpp"
#include "topo/toy.hpp"
#include "topo/xpander.hpp"
#include "transport/mptcp.hpp"
#include "util.hpp"
#include "workload/flow_size.hpp"

using namespace flexnets;

namespace {

// What a row runs with.
struct Driver {
  int argc;
  char** argv;  // a coordinator re-executes it for its workers
  const bench::GridFlags& flags;
  bool full;  // REPRO_FULL=1: paper-scale parameters
  bench::ResilientState* state;
  std::string name;  // the row's: its grid's key prefix and digest label

  // The row's one grid; fn(i) returns point i's status and values.
  std::vector<core::JournalRecord> grid(std::size_t n,
                                        const bench::PointFn& fn) const {
    return bench::run_grid_resilient_sharded(argc, argv, n, name, state,
                                             flags, fn);
  }

  void print_digest(const std::vector<core::JournalRecord>& records) const {
    bench::print_digest_line(name, bench::grid_digest(records),
                             records.size(), bench::count_failed(records));
  }
};

// Every topology a packet figure can name.
enum class Topo {
  kFatTree,       // section 6.4 baseline (also the ProjecToR-style one)
  kXpander,       // section 6.4 Xpander at ~2/3 of the fat-tree's cost
  kFatTree77,     // the 77%-fat-tree of Fig 11
  kProjector,     // the ProjecToR-style Xpander of Figs 13-14
  kLargeFatTree,  // Fig 15's pair
  kLargeXpander,
};

topo::Topology build_topology(Topo t, bool full) {
  switch (t) {
    case Topo::kFatTree:
      return bench::section64_topologies(full).fat_tree.topo;
    case Topo::kXpander:
      return bench::section64_topologies(full).xpander;
    case Topo::kFatTree77:
      // Keep ~77% of the network ports by stripping cores (k=16: 35/64
      // cores; k=8: 9/16 cores).
      return (full ? topo::fat_tree_stripped(16, 35)
                   : topo::fat_tree_stripped(8, 9))
          .topo;
    case Topo::kProjector:
      // Paper: 128 ToRs x 16 network ports, 8 servers each. Scaled: 32
      // ToRs x 8 network ports, 4 servers each.
      return full ? topo::xpander_for(128, 16, 8, /*seed=*/1)
                  : topo::xpander_for(32, 8, 4, /*seed=*/1);
    case Topo::kLargeFatTree:
      // Paper: k=24 fat-tree (720 switches, 3456 servers) vs 322 switches
      // of 24 ports (11 servers + 13 network ports). Scaled: k=12 (180
      // switches, 432 servers) vs 81 switches of 12 ports.
      return (full ? topo::fat_tree(24) : topo::fat_tree(12)).topo;
    case Topo::kLargeXpander:
      return full ? topo::xpander_for(322, 13, 11, /*seed=*/1)
                  : topo::xpander_for(81, 6, 6, /*seed=*/1);
  }
  return {};
}

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
  kAggregate,        // the rate is the aggregate
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
  // Print the first two contenders' sizes and cost ratio as the heading.
  bool pair_heading = false;
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
  std::string name;  // the row's name
  std::string title;
  std::string description;
  std::vector<Block> blocks;
};

using Topologies = std::map<Topo, topo::Topology>;

// Builds the topologies the figure's contenders name, and no others.
Topologies build_topologies(const Figure& f, bool full) {
  Topologies out;
  for (const Block& b : f.blocks) {
    for (const Contender& c : b.contenders) {
      if (!out.contains(c.topo)) {
        out.emplace(c.topo, build_topology(c.topo, full));
      }
    }
  }
  return out;
}

// One grid point: a contender at one x of one block.
struct Point {
  const Block* block;
  double x;
  const Contender* contender;
};

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

core::JournalRecord simulate(const Point& p, const Topologies& topos,
                             bool full) {
  const Block& b = *p.block;
  const Contender& c = *p.contender;
  const topo::Topology& t = topos.at(c.topo);
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
  core::JournalRecord rec;
  rec.values = {
      {"avg_fct_ms", r.fct.avg_fct_ms},
      {"p99_short_fct_ms", r.fct.p99_short_fct_ms},
      {"avg_long_tput_gbps", r.fct.avg_long_tput_gbps},
      {"incomplete_flows", static_cast<double>(r.fct.incomplete_flows)},
      {"drops", static_cast<double>(r.drops)},
      {"ecn_marks", static_cast<double>(r.ecn_marks)}};
  return rec;
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

std::vector<Figure> packet_figures(bool full) {
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
  // through random via points. lambda is the aggregate arrival rate on
  // every topology.
  out.push_back(
      {"fig7b", "Fig 7(b)",
       "two adjacent racks: ECMP's single path vs VLB's diversity",
       {{.contenders = trio(Topo::kFatTree, Topo::kXpander, RoutingMode::kVlb),
         .xs = pick({250, 500, 1000, 2000, 3000}, {100, 250, 500, 750, 1000}),
         .traffic = Traffic::kTwoRacks,
         .per_rack = per_rack,
         .rule = RateRule::kAggregate,
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
  out.push_back(
      {"fig15", "Fig 15", "Skew(0.04,0.77) at larger scale, ~45% of cost",
       {{.pair_heading = true,
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

// Prints the figure's tables from its grid records.
void print_figure(const Figure& f, const Topologies& topos,
                  const std::vector<core::JournalRecord>& records) {
  std::size_t next = 0;
  for (const Block& b : f.blocks) {
    if (b.pair_heading) {
      const auto& ft = topos.at(b.contenders[0].topo);
      const auto& xp = topos.at(b.contenders[1].topo);
      std::printf(
          "fat-tree: %d switches, %d servers | xpander: %d switches, %d "
          "servers\nswitch-count ratio: %.0f%%, network-port cost ratio: "
          "%.0f%%\n\n",
          ft.num_switches(), ft.num_servers(), xp.num_switches(),
          xp.num_servers(), 100.0 * xp.num_switches() / ft.num_switches(),
          100.0 * cost::network_cost(xp) / cost::network_cost(ft));
    } else if (!b.heading.empty()) {
      std::printf("%s\n", b.heading.c_str());
    }
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
}

void run_packet_figure(const Figure& f, const Driver& d) {
  bench::banner(f.title, f.description);
  const auto topos = build_topologies(f, d.full);
  const auto points = grid_points(f);
  const auto records = d.grid(points.size(), [&](std::size_t i) {
    return simulate(points[i], topos, d.full);
  });
  print_figure(f, topos, records);
  d.print_digest(records);
}

// One GK solve as a grid record: the feasible lambda, and the status of a
// solve that stopped early.
core::JournalRecord solve(const topo::Topology& t,
                          const flow::TrafficMatrix& tm, double eps) {
  const auto r = flow::per_server_throughput_budgeted(
      t, tm, {eps}, flow::build_throughput_cache(t));
  core::JournalRecord rec;
  rec.code = r.status.code();
  rec.message = r.status.message();
  rec.values = {{"throughput", r.lambda}};
  return rec;
}

std::string money(double v) {
  return v == 0.0 ? "-" : "$" + TextTable::fmt(v, 0);
}

// Table 1: cost per network port for static and recent dynamic networks,
// and the derived flexible-port cost factor delta.
void table1(const Driver&) {
  bench::banner("Table 1", "cost per network port (component costs from ProjecToR)");

  const auto stat = cost::static_port();
  const auto ff = cost::firefly_port();
  const auto pj_lo = cost::projector_port_low();
  const auto pj_hi = cost::projector_port_high();

  TextTable t({"Component", "Static", "FireFly", "ProjecToR"});
  auto row = [&](const std::string& name, auto get) {
    const double lo = get(pj_lo);
    const double hi = get(pj_hi);
    const std::string pj =
        lo == hi ? money(lo) : money(lo) + " to " + money(hi);
    t.add_row({name, money(get(stat)), money(get(ff)), pj});
  };
  row("SR transceiver", [](const auto& p) { return p.transceiver; });
  row("Optical cable ($0.3/m)", [](const auto& p) { return p.cable; });
  row("ToR port", [](const auto& p) { return p.tor_port; });
  row("ProjecToR Tx+Rx", [](const auto& p) { return p.tx_rx; });
  row("DMD", [](const auto& p) { return p.dmd; });
  row("Mirror assembly, lens", [](const auto& p) { return p.mirror_lens; });
  row("Galvo mirror", [](const auto& p) { return p.galvo; });
  row("Total", [](const auto& p) { return p.total(); });
  t.print();

  std::printf("\nDerived flexible-port cost factor delta (vs static $%.0f):\n",
              stat.total());
  std::printf("  FireFly          delta = %.2f\n", cost::delta(ff));
  std::printf("  ProjecToR (low)  delta = %.2f\n", cost::delta(pj_lo));
  std::printf("  ProjecToR (high) delta = %.2f\n", cost::delta(pj_hi));
  std::printf(
      "\nPaper: \"the lowest estimates imply delta = 1.5\" -> an equal-cost\n"
      "dynamic network affords at most %d flexible ports per 24 static "
      "ports.\n",
      cost::equal_cost_flexible_ports(24, 1.5));
}

// Observation 1, numerically: a fat-tree oversubscribed to x of full
// capacity admits a traffic matrix over a 2/k fraction of servers that
// achieves no more than x per-server throughput, measured with the
// fluid-flow engine on actual stripped fat-trees.
void obs1(const Driver& d) {
  bench::banner("Observation 1",
                "oversubscribed fat-trees are capped at x for 2/k-fraction TMs");

  const int k = d.full ? 12 : 8;
  const int full_cores = (k / 2) * (k / 2);
  std::vector<int> cores;
  std::vector<topo::FatTree> trees;
  for (const double x : {0.25, 0.5, 0.75, 1.0}) {
    cores.push_back(std::max(1, static_cast<int>(x * full_cores)));
    trees.push_back(topo::fat_tree_stripped(k, cores.back()));
  }
  // The constructive TM of Observation 1: every server in pod 0 sends to
  // a unique server in pod 1 (rack i -> rack (k/2)+i, full demand).
  flow::TrafficMatrix tm;
  for (int r = 0; r < k / 2; ++r) {
    tm.commodities.push_back({r, k / 2 + r, static_cast<double>(k / 2)});
    tm.commodities.push_back({k / 2 + r, r, static_cast<double>(k / 2)});
  }
  const auto records = d.grid(trees.size(), [&](std::size_t i) {
    return solve(trees[i].topo, tm, 0.04);
  });

  TextTable t({"oversubscription_x", "cores_kept", "pod_pair_TM_throughput",
               "bound_x"});
  for (std::size_t i = 0; i < trees.size(); ++i) {
    const double kept = static_cast<double>(cores[i]) / full_cores;
    t.add_row({TextTable::fmt(kept, 2), std::to_string(cores[i]),
               TextTable::fmt(records[i].value("throughput"), 3),
               TextTable::fmt(kept, 3)});
  }
  t.print();
  std::printf(
      "\nExpected: measured throughput tracks the oversubscription fraction\n"
      "even though the TM involves only 2/k = %.1f%% of the servers.\n",
      200.0 / k);
  d.print_digest(records);
}

// Fig 2: the throughput-proportionality ideal versus the oversubscribed
// fat-tree's flat-then-proportional curve (section 2). Its grid carries
// the tools/ci.sh kill/resume and chaos gates.
void fig2(const Driver& d) {
  bench::banner("Fig 2",
                "throughput proportionality vs fat-tree inflexibility");

  // Section 2.1's running example: a k=64 fat-tree oversubscribed to 50%.
  const flow::FatTreeModel ft{64, 0.5};
  const double alpha = ft.alpha;
  std::printf("fat-tree k=%d, alpha=%.2f -> beta = 2/k = %.4f; a pair of\n",
              ft.k, alpha, ft.beta());
  std::printf(
      "pods holding only %.1f%% of servers is stuck at %.0f%% throughput.\n\n",
      100.0 * ft.beta(), 100.0 * alpha);

  std::vector<double> xs;
  for (double x = 0.01; x <= 1.0 + 1e-9; x += (x < 0.1 ? 0.01 : 0.05)) {
    xs.push_back(x);
  }
  const auto records = d.grid(xs.size(), [&](std::size_t i) {
    core::JournalRecord rec;
    rec.values = {{"throughput_proportional", flow::tp_curve(alpha, xs[i])},
                  {"fat_tree", ft.throughput(xs[i])}};
    return rec;
  });

  TextTable t({"fraction_x", "throughput_proportional", "fat_tree"});
  for (std::size_t i = 0; i < xs.size(); ++i) {
    t.add_row({xs[i], records[i].value("throughput_proportional"),
               records[i].value("fat_tree")},
              4);
  }
  t.print();
  std::printf(
      "\nShape check: TP reaches line rate at x = alpha = %.2f; the fat-tree\n"
      "stays at alpha until x = beta and reaches line rate only at x = "
      "alpha*beta = %.4f.\n\n",
      alpha, alpha * ft.beta());
  d.print_digest(records);
}

// Fig 3 (as structure statistics): the Xpander with 486 24-port switches
// supporting 3402 servers, organized as 6 pods of 3 meta-nodes, and its
// cabling/cost profile vs a k=24 fat-tree.
void fig3(const Driver&) {
  bench::banner("Fig 3", "Xpander structure: 486 switches, 3402 servers, pods");

  const auto x = topo::xpander(17, 27, 7, 1);
  const auto ft = topo::fat_tree(24);

  TextTable t({"property", "xpander", "fat-tree k=24"});
  t.add_row({"switches", std::to_string(x.topo.num_switches()),
             std::to_string(ft.topo.num_switches())});
  t.add_row({"servers", std::to_string(x.topo.num_servers()),
             std::to_string(ft.topo.num_servers())});
  t.add_row({"network links", std::to_string(x.topo.num_network_links()),
             std::to_string(ft.topo.num_network_links())});
  t.add_row({"network cost ($)",
             TextTable::fmt(cost::network_cost(x.topo), 0),
             TextTable::fmt(cost::network_cost(ft.topo), 0)});
  t.add_row({"switch-graph diameter",
             std::to_string(graph::diameter(x.topo.g)),
             std::to_string(graph::diameter(ft.topo.g))});
  t.add_row({"mean switch distance",
             TextTable::fmt(graph::mean_distance(x.topo.g), 3),
             TextTable::fmt(graph::mean_distance(ft.topo.g), 3)});
  t.print();

  // Pod / meta-node organization: 18 meta-nodes of 27 switches, grouped
  // into 6 pods of 3 meta-nodes (as drawn in the figure).
  std::printf("\nmeta-nodes: %d (one per lift group, %d switches each)\n",
              x.num_meta_nodes(), x.lift);
  std::printf("pods: 6 x 3 meta-nodes = %d switches/pod\n", 3 * x.lift);

  // Cable aggregation: links between a meta-node pair form one bundle.
  const int bundles = x.num_meta_nodes() * (x.num_meta_nodes() - 1) / 2;
  std::printf(
      "cable bundles: %d (one %d-cable bundle per meta-node pair;\n"
      "bundling cuts fiber capex+opex by ~40%% per Jupiter-rising [29])\n",
      bundles, x.lift);

  const double gap = graph::second_eigenvalue(x.topo.g, 300, 7);
  std::printf("\nexpansion: lambda2 = %.2f vs Ramanujan bound 2*sqrt(d-1) = %.2f\n",
              gap, graph::ramanujan_bound(x.network_degree));
  std::printf(
      "cost: the Xpander above costs %.0f%% of the full k=24 fat-tree while\n"
      "hosting %.1fx the servers.\n",
      100.0 * cost::network_cost(x.topo) / cost::network_cost(ft.topo),
      static_cast<double>(x.topo.num_servers()) / ft.topo.num_servers());
}

// The section 4.1 toy example (Fig 4): 54 switches, 12 ports, 6 servers
// each, traffic only between 9 racks.
//  - restricted dynamic model: upper-bounded at 80% throughput;
//  - unrestricted dynamic model: full throughput (delta = 1);
//  - the static wiring of Fig 4: full throughput;
//  - equal-cost Jellyfish (delta = 1.5) in both configurations from the
//    paper: (a) 54 switches with 9 network ports, (b) 81 switches with the
//    same 12-port radix.
void toy41(const Driver& d) {
  bench::banner("Section 4.1 toy example",
                "static wiring vs un/restricted dynamic models, 9 active racks");

  // The static topology of Fig 4, and the equal-cost Jellyfish variants
  // (delta = 1.5 -> static affords 1.5x the dynamic network's 6 ports),
  // each under a hard TM over its active racks: the 9 of Fig 4, and a
  // permutation among random racks. The 81-switch variant has the same
  // radix (12 = 4 servers + 8 net ports): 81 carry the same 324 servers,
  // and 14 racks hold ~54 of them.
  const auto toy = topo::toy_section41();
  const auto jf54 = topo::jellyfish(54, 9, 6, 1);
  const auto jf81 = topo::jellyfish(81, 8, 4, 1);
  const struct {
    const topo::Topology* t;
    std::vector<topo::NodeId> active;
  } statics[] = {{&toy.topo, toy.active_tors},
                 {&jf54, flow::pick_active_racks(jf54, 9, 3)},
                 {&jf81, flow::pick_active_racks(jf81, 14, 3)}};
  const std::vector<std::string> designs = {
      "restricted dynamic (delta=1)", "unrestricted dynamic (delta=1)",
      "static Fig-4 wiring (45 fat-tree switches + 9 ToRs)",
      "jellyfish 54 switches x 9 net ports (delta=1.5 budget)",
      "jellyfish 81 switches x 12-port radix (delta=1.5 budget)"};
  const auto records = d.grid(designs.size(), [&](std::size_t i) {
    if (i >= 2) {
      const auto& s = statics[i - 2];
      return solve(*s.t, flow::longest_matching_tm(*s.t, s.active), 0.04);
    }
    // Analytic dynamic models: 9 racks, 6 network ports, 6 servers.
    core::JournalRecord rec;
    rec.values = {{"throughput",
                   i == 0 ? flow::restricted_dynamic_throughput(9, 6, 6, 1.0)
                          : flow::unrestricted_dynamic_throughput(6, 6, 1.0)}};
    return rec;
  });

  TextTable t({"design", "per_server_throughput"});
  for (std::size_t i = 0; i < designs.size(); ++i) {
    t.add_row({designs[i], TextTable::fmt(records[i].value("throughput"), 3)});
  }
  t.print();
  std::printf(
      "\nExpected (paper 4.1): restricted dynamic capped at 0.80; the static\n"
      "Fig-4 wiring and the equal-cost Jellyfish configurations reach ~1.0\n"
      "without knowing which racks would be active.\n");
  d.print_digest(records);
}

// A fluid curve: one topology swept over the fractions of servers with
// demand.
struct Series {
  std::string label;  // table column; digest line "<row>/<label>"
  topo::Topology topo;
};
using Curves = std::vector<std::vector<core::JournalRecord>>;  // [series][i]

// The section 5 sweeps: the default fractions and longest-matching TMs,
// with a looser GK tolerance at paper scale.
core::FluidSweepOptions fluid_options(bool full) {
  core::FluidSweepOptions opts;
  opts.eps = full ? 0.12 : 0.07;
  return opts;
}

// Sweeps every series as the row's one grid: point k is series k / n at
// fraction k mod n.
Curves sweep(const Driver& d, const std::vector<Series>& series,
             const core::FluidSweepOptions& opts) {
  std::vector<flow::ThroughputCache> caches;
  for (const auto& s : series) {
    caches.push_back(flow::build_throughput_cache(s.topo));
  }
  const std::size_t n = opts.fractions.size();
  const auto records = d.grid(series.size() * n, [&](std::size_t k) {
    return core::to_journal_record(
        d.name, k,
        core::fluid_sweep_point(series[k / n].topo, caches[k / n], opts,
                                k % n));
  });
  Curves out(series.size());
  for (std::size_t k = 0; k < records.size(); ++k) {
    out[k / n].push_back(records[k]);
  }
  return out;
}

// One digest line per series, over what core::fluid_sweep_digest reads.
void print_series_digests(const Driver& d, const std::vector<Series>& series,
                          const Curves& curves) {
  for (std::size_t s = 0; s < series.size(); ++s) {
    std::vector<core::FluidPointRecord> points;
    for (const auto& rec : curves[s]) {
      points.push_back(core::from_journal_record(rec));
    }
    bench::print_digest_line(d.name + "/" + series[s].label,
                             core::fluid_sweep_digest(points), points.size(),
                             bench::count_failed(curves[s]));
  }
}

// Figs 5(a) and 5(b): Jellyfish and a structured topology with the same
// switches (series[1]) against the throughput-proportionality ideal
// anchored at Jellyfish's x = 1 value, the dynamic models at delta = 1.5,
// and the equal-cost oversubscribed fat-tree (analytic, section 2): the
// same port budget supporting the same servers, where a full-bandwidth
// fat-tree spends 4 network ports per server.
void fluid_vs_models(const Driver& d, const std::vector<Series>& series,
                     int net_ports, const char* expected) {
  const topo::Topology& t = series[1].topo;
  const int tors = t.num_switches();
  const int srv_ports = t.servers_per_switch[0];
  std::printf("topology: %d ToRs, %d network + %d server ports each\n\n",
              tors, net_ports, srv_ports);

  const auto opts = fluid_options(d.full);
  const auto curves = sweep(d, series, opts);
  const double alpha = curves[0].back().value("throughput");  // x = 1.0
  const double delta = 1.5;
  const double ft_alpha = std::min(
      1.0, static_cast<double>(tors * net_ports) / (4.0 * t.num_servers()));
  const int radix = net_ports + srv_ports;
  const flow::FatTreeModel ft{radix - (radix % 2), ft_alpha};

  TextTable table({"fraction_x", "TP_ideal", series[0].label, series[1].label,
                   "unrestricted_dyn_d1.5", "restricted_dyn_d1.5",
                   "equalcost_fattree"});
  for (std::size_t i = 0; i < opts.fractions.size(); ++i) {
    const double x = opts.fractions[i];
    table.add_row(
        {x, flow::tp_curve(alpha, x), curves[0][i].value("throughput"),
         curves[1][i].value("throughput"),
         flow::unrestricted_dynamic_throughput(net_ports, srv_ports, delta),
         flow::restricted_dynamic_throughput(static_cast<int>(x * tors),
                                             net_ports, srv_ports, delta),
         ft.throughput(x)},
        3);
  }
  table.print();
  std::fputs(expected, stdout);
  print_series_digests(d, series, curves);
}

// Fig 5(a). Default scale: SlimFly q=5 (50 ToRs, 7 network + 6 server
// ports). REPRO_FULL=1: q=13; the paper's q=17 (578 ToRs, 25 network + 24
// server ports) is feasible but hours-long on one core.
void fig5a(const Driver& d) {
  bench::banner("Fig 5(a)",
                "throughput proportionality / dynamic models vs SlimFly and "
                "Jellyfish");
  const auto sf = topo::slim_fly(d.full ? 13 : 5, d.full ? 24 : 6);
  const int net_ports = sf.network_degree();
  fluid_vs_models(
      d,
      {{"jellyfish",
        topo::jellyfish(sf.topo.num_switches(), net_ports,
                        sf.topo.servers_per_switch[0], /*seed=*/1)},
       {"slimfly", sf.topo}},
      net_ports, R"(
Expected shape (paper): Jellyfish/SlimFly rise toward 1.0 as x
shrinks, tracking TP; the restricted dynamic model stays poor; the
unrestricted model is flat at min(1, (r/delta)/s); the fat-tree is
flat and lowest. The shaded regime of interest is small x.

)");
}

// Fig 5(b): the same comparison against LongHop (paper: 512 ToRs, 10
// network + 8 server ports). Default scale: 64 ToRs (dim 6 + 1 long hop).
// REPRO_FULL=1: 512 ToRs.
void fig5b(const Driver& d) {
  bench::banner("Fig 5(b)",
                "throughput proportionality / dynamic models vs LongHop and "
                "Jellyfish");
  const int servers = d.full ? 8 : 6;
  const auto lh = topo::long_hop(d.full ? 9 : 6, 1, servers);
  const int net_ports = lh.g.degree(0);
  fluid_vs_models(
      d,
      {{"jellyfish", topo::jellyfish(lh.num_switches(), net_ports, servers,
                                     /*seed=*/1)},
       {"longhop", lh}},
      net_ports, R"(
Expected shape (paper): broadly similar to Fig 5(a); Jellyfish
stays at or above LongHop (LongHop is a structured non-optimal
expander) and both dominate the dynamic models at small x.

)");
}

// Figs 6(a) and 6(b): one column of per-server throughput per Jellyfish.
void jellyfish_curves(const Driver& d, const std::vector<Series>& series,
                      const char* expected) {
  const auto opts = fluid_options(d.full);
  const auto curves = sweep(d, series, opts);
  std::vector<std::string> header{"fraction_x"};
  for (const auto& s : series) header.push_back(s.label);
  TextTable t(header);
  for (std::size_t i = 0; i < opts.fractions.size(); ++i) {
    std::vector<double> row{opts.fractions[i]};
    for (const auto& c : curves) row.push_back(c[i].value("throughput"));
    t.add_row(row, 3);
  }
  t.print();
  std::fputs(expected, stdout);
  print_series_digests(d, series, curves);
}

// Fig 6(a): Jellyfish built with 80% / 50% / 40% of a full fat-tree's
// switches (same radix, same server count) still provides near-full
// bandwidth when a minority of servers participate. Default scale: k=8
// (80 switches, 128 servers). REPRO_FULL=1: the paper's k=20 (500
// switches, 2000 servers).
void fig6a(const Driver& d) {
  bench::banner("Fig 6(a)",
                "Jellyfish at 80/50/40% of a full fat-tree's switches");
  const int k = d.full ? 20 : 8;
  const auto ft = topo::fat_tree(k);
  const int servers = ft.topo.num_servers();
  const int switches = ft.topo.num_switches();
  std::printf("baseline: full fat-tree k=%d (%d switches, %d servers)\n\n", k,
              switches, servers);
  std::vector<Series> series;
  for (const double frac : {0.8, 0.5, 0.4}) {
    const int n = static_cast<int>(frac * switches);
    auto jf = topo::jellyfish_same_equipment(n, k, servers, 1);
    std::printf("  %s: %d switches of radix %d, %d servers\n",
                jf.name.c_str(), n, k, servers);
    series.push_back(
        {TextTable::fmt(100 * frac, 0) + "%_fat_switches", std::move(jf)});
  }
  std::printf("\n");
  jellyfish_curves(d, series, R"(
Expected shape (paper): with 50% of the fat-tree's switches,
Jellyfish still gives ~full bandwidth when <40% of servers are
active; the full fat-tree itself would be a flat 1.0 line.

)");
}

// Fig 6(b): Jellyfish built with the same switches as a full fat-tree but
// hosting TWICE the servers, across fat-tree scales (paper: k = 12, 24,
// 36). Default scale: k in {8, 12}. REPRO_FULL=1: k in {12, 24, 36}.
void fig6b(const Driver& d) {
  bench::banner("Fig 6(b)",
                "Jellyfish with a fat-tree's switches and 2x its servers");
  std::vector<Series> series;
  for (const int k : d.full ? std::vector<int>{12, 24, 36}
                            : std::vector<int>{8, 12}) {
    const auto ft = topo::fat_tree(k);
    const int switches = ft.topo.num_switches();
    const int servers = 2 * ft.topo.num_servers();
    std::printf("  k=%d: %d switches of radix %d, %d servers (fat-tree: %d)\n",
                k, switches, k, servers, ft.topo.num_servers());
    series.push_back({"k=" + std::to_string(k),
                      topo::jellyfish_same_equipment(switches, k, servers, 1)});
  }
  std::printf("\n");
  jellyfish_curves(d, series, R"(
Expected shape (paper): despite hosting 2x the servers on the same
switches, Jellyfish reaches full per-server throughput once a
minority of servers participate, and larger k only helps.

)");
}

// Fig 8: the two flow-size distributions the packet figures draw from, as
// CDF tables plus sampled statistics.
void fig8(const Driver&) {
  bench::banner("Fig 8", "flow size distributions (CDF)");

  const auto pfabric = workload::pfabric_web_search();
  const auto pareto = workload::pareto_hull();

  TextTable t({"size_bytes", "pareto_hull_cdf", "pfabric_web_search_cdf"});
  for (double s = 1e3; s <= 1e9 + 1; s *= 2.15443469) {  // ~3 points/decade
    const auto size = static_cast<Bytes>(s);
    t.add_row({TextTable::fmt(s, 0), TextTable::fmt(pareto->cdf(size), 4),
               TextTable::fmt(pfabric->cdf(size), 4)});
  }
  t.print();

  for (const auto* dist :
       {static_cast<const workload::FlowSizeDistribution*>(pareto.get()),
        static_cast<const workload::FlowSizeDistribution*>(pfabric.get())}) {
    Rng rng(1);
    RunningStats st;
    int short_flows = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      const auto s = dist->sample(rng);
      st.add(static_cast<double>(s));
      short_flows += (s < workload::kShortFlowThreshold);
    }
    std::printf(
        "\n%s: sampled mean = %.0f KB, %%flows < 100KB = %.1f%% "
        "(paper: mean %s, short/long split at 100KB)",
        dist->name().c_str(), st.mean() / 1e3, 100.0 * short_flows / n,
        dist->name() == "pareto-hull" ? "100KB" : "2.4MB");
  }
  std::printf("\n");
}

struct Row {
  std::string name;  // --figure value
  std::function<void(const Driver&)> run;
};

// Every paper item, in paper order.
std::vector<Row> rows(bool full) {
  std::vector<Row> out = {{"table1", table1}, {"obs1", obs1},
                          {"fig2", fig2},     {"fig3", fig3},
                          {"toy41", toy41},   {"fig5a", fig5a},
                          {"fig5b", fig5b},   {"fig6a", fig6a},
                          {"fig6b", fig6b}};
  for (const Figure& f : packet_figures(full)) {
    out.push_back({f.name, [f](const Driver& d) { run_packet_figure(f, d); }});
    // Fig 8 shows the packet runs' flow sizes, between Figs 7 and 9.
    if (f.name == "fig7c") out.push_back({"fig8", fig8});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> figures;
  bench::GridFlags flags;
  auto valued = bench::kGridFlags;
  valued.push_back("--figure");
  bench::parse_flags(
      argc, argv,
      std::string("bench_figures [--figure <name>]... ") + bench::kGridUsage,
      valued, {}, [&](const std::string& flag, const std::string& value) {
        if (flag == "--figure") {
          figures.push_back(value);
        } else {
          flags.set(flag, value);
        }
      });
  const bool full = core::repro_full();
  const auto table = rows(full);

  // A worker runs only the row whose grid it serves.
  const bool worker = !flags.worker_grid.empty();
  const auto wanted =
      worker ? std::vector<std::string>{flags.worker_grid} : figures;
  for (const auto& name : wanted) {
    if (std::ranges::none_of(table,
                             [&](const Row& r) { return r.name == name; })) {
      std::fprintf(stderr, "error: unknown figure '%s'; known:", name.c_str());
      for (const auto& r : table) std::fprintf(stderr, " %s", r.name.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }

  bench::ResilientState state;
  bench::init_resilient_state(flags, &state);
  for (const auto& row : table) {
    if (wanted.empty() || std::ranges::find(wanted, row.name) != wanted.end()) {
      row.run(Driver{argc, argv, flags, full, &state, row.name});
    }
  }
  // A worker's grid serves its leases and exits the process.
  if (worker) {
    std::fprintf(stderr, "error: --sweep-worker=%s: the row has no grid\n",
                 flags.worker_grid.c_str());
    return 2;
  }
  return 0;
}
