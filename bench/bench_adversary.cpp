// How hard are the paper's "longest matching" TMs really? The paper calls
// finding worst-case TMs computationally non-trivial and uses the matching
// heuristic as a best effort (section 5). This bench runs local search on
// top of that heuristic and reports how much further throughput can be
// pushed down -- for the expander AND the equal-equipment fat-tree, so the
// section 5 comparisons' robustness to the TM choice is visible.
//
// Takes no flags; any argument exits 2, naming it.
#include <cstdio>

#include "flow/adversary.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "util.hpp"

using namespace flexnets;

int main(int argc, char** argv) {
  bench::parse_flags(argc, argv, "bench_adversary", {}, {},
                     [](const std::string&, const std::string&) {});
  bench::banner("Adversarial TM search",
                "local search below the longest-matching heuristic");

  const bool full = core::repro_full();
  const int iters = full ? 60 : 25;
  const double eps = full ? 0.08 : 0.06;

  struct Entry {
    std::string label;
    topo::Topology t;
  };
  std::vector<Entry> entries;
  entries.push_back({"jellyfish 32x8 (4 srv)", topo::jellyfish(32, 8, 4, 1)});
  entries.push_back(
      {"fat-tree k=8 (half cores)", topo::fat_tree_stripped(8, 8).topo});

  TextTable t({"topology", "active_racks", "longest_matching",
               "after_search", "accepted_swaps", "hardening"});
  for (const auto& e : entries) {
    // All racks active: the regime where matching structure matters most.
    const int m = static_cast<int>(e.t.tors().size());
    const auto active = flow::pick_active_racks(e.t, m, 3);
    const auto r = flow::adversarial_matching_tm(e.t, active, iters, eps, 7);
    t.add_row({e.label, std::to_string(m),
               TextTable::fmt(r.initial_throughput, 3),
               TextTable::fmt(r.throughput, 3),
               std::to_string(r.improvements),
               TextTable::fmt(
                   r.initial_throughput > 0
                       ? 100.0 * (1.0 - r.throughput / r.initial_throughput)
                       : 0.0,
                   1) +
                   "%"});
  }
  t.print();

  // Random hose TMs for context: how hard are matchings vs generic hose
  // traffic on the expander?
  {
    const auto& jf = entries[0].t;
    const auto active = flow::pick_active_racks(jf, 16, 3);
    const double hose = flow::per_server_throughput(
        jf, flow::random_hose_tm(jf, active, 3, 1), {eps});
    const double lm = flow::per_server_throughput(
        jf, flow::longest_matching_tm(jf, active), {eps});
    std::printf(
        "\ncontext (jellyfish, 16 active racks): random hose TM %.3f vs\n"
        "longest matching %.3f -- matchings are the harder family, as the\n"
        "paper's section 5 methodology assumes.\n",
        hose, lm);
  }
  std::printf(
      "\nReading: local search shaves only a modest margin off the\n"
      "heuristic on the expander (the section 5 numbers are not an easy-TM\n"
      "artifact); structured fat-trees are already at their analytic\n"
      "bottleneck and barely move.\n");
  return 0;
}
