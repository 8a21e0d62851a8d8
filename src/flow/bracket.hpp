// Cheap throughput brackets for hyperscale instances: upper and lower
// bounds on the max concurrent-flow fraction lambda, computed in
// O(trees * (V + E)) over the graph's flat adjacency — no FPTAS solve, no
// materialized commodities. The intended use is bracketing instances far
// beyond GK's reach (100k switches) and pre-screening sweeps: when the
// bracket is tight enough, the solve is skipped entirely
// (cf. "Measuring and Understanding Throughput of Network Topologies",
// PAPERS.md).
//
// Every bound is mathematically valid, not heuristic:
//  - upper_node_cut: all of a rack's hose demand must cross its switch's
//    incident links (source side and sink side separately);
//  - upper_spectral_cut: any graph cut caps lambda by cut capacity over
//    demand crossing it; the cut is picked from an approximate Fiedler
//    vector (sign and median sweeps), so quality — never soundness —
//    depends on the spectral estimate;
//  - upper_path_length: total directed capacity over a lower bound on the
//    TM's minimum capacity consumption (Moore-ball distances for the
//    implicit all-to-all family, BFS-tree depth gaps for explicit pairs);
//  - lower: a constructive feasible flow — demand split evenly over
//    `num_trees` BFS trees with deterministic spread-out roots, per-arc
//    loads aggregated exactly, lambda = the worst capacity/load ratio.
//
// Therefore lower <= lambda* <= upper always holds (checked under
// FLEXNETS_AUDIT, and against GK by the tests/csr property suite).
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "flow/tm_view.hpp"
#include "topo/topology.hpp"

namespace flexnets::flow {

struct BracketOptions {
  // BFS trees carrying the constructive lower bound; more trees spread
  // load better (up to a point) and cost one O(V + E) pass each.
  int num_trees = 8;
  // Power-iteration steps for the spectral cut's Fiedler estimate.
  int power_iterations = 60;
  std::uint64_t seed = 1;
};

struct ThroughputBracket {
  double lower = 0.0;  // feasible: a routing achieving this exists
  double upper = 0.0;  // no routing can exceed this
  // The individual upper bounds (1.0-capped; `upper` is their minimum).
  double upper_node_cut = 1.0;
  double upper_spectral_cut = 1.0;
  double upper_path_length = 1.0;
  // kOk; kPartitioned when demand crosses disconnected components (then
  // lower = upper = 0, the exact answer).
  Status status;
};

// Bounds lambda for `tm` on `t`. An empty TM brackets to [0, 0] like the
// solver's lambda convention.
ThroughputBracket throughput_bracket(const topo::Topology& t,
                                     const TmView& tm,
                                     const BracketOptions& opts = {});

}  // namespace flexnets::flow
