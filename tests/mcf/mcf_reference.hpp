// Frozen pre-optimization Garg-Koenemann baseline: the naive solver
// (vector<vector<Adj>> adjacency, one early-exit binary-heap Dijkstra per
// commodity recompute, per-iteration path re-summing) exactly as it stood
// before the CSR / source-grouped rewrite of flow/mcf.cpp.
//
// It exists as the comparison oracle of the `ctest -L mcf` golden suite,
// which asserts the optimized solver's lambda agrees with this one within
// the eps-band on pinned instances; EXPERIMENTS.md records the one-time
// optimized-vs-reference timing. Do not optimize or "fix" this file; it
// is deliberately the old code.
#pragma once

#include "flow/mcf.hpp"

namespace flexnets::flow {

// Same contract as max_concurrent_flow (flow/mcf.hpp).
McfResult reference_max_concurrent_flow(
    int num_nodes, const std::vector<DirectedEdge>& edges,
    const std::vector<McfCommodity>& commodities, double eps = 0.1);

}  // namespace flexnets::flow
