// Maximum concurrent multicommodity flow via the Garg-Koenemann FPTAS
// (Garg & Koenemann, FOCS 1998 / SICOMP 2007, with Fleischer's phase
// organization), stopped by an LP-duality certificate.
//
// Given a directed capacitated graph and commodities (src, dst, demand),
// computes a certified interval [lambda, lambda_upper] around the optimal
// concurrent-flow fraction lambda*: lambda * demand_i is simultaneously
// routable for every commodity, and lambda_upper >= lambda* by weak
// duality. The solver stops as soon as lambda >= (1 - eps) * lambda_upper.
// This stands in for the exact LP the paper solves with a commercial
// solver (see DESIGN.md substitutions).
//
// The hot path runs on a flat CSR adjacency and a 4-ary-heap Dijkstra
// (flow/solver_internals.hpp) and serves commodities grouped by source
// from one shortest-path tree per recompute; the naive pre-optimization
// solver is preserved verbatim in tests/mcf/mcf_reference.hpp as the
// golden comparison oracle (ctest -L mcf).
#pragma once

#include <atomic>
#include <limits>
#include <vector>

#include "common/annotations.hpp"
#include "common/status.hpp"

namespace flexnets::flow {

struct DirectedEdge {
  int from = 0;
  int to = 0;
  double capacity = 0.0;
};

struct McfCommodity {
  int src = 0;
  int dst = 0;
  double demand = 0.0;
};

// Cooperative budgets for the GK loop. GK is primal: lambda after k
// completed phases is always feasible, so stopping early loosens the
// certificate but never the feasibility of the reported value -- a
// budgeted run returns the best lambda proven so far.
struct McfLimits {
  // Stop after this many completed phases; 0 = no explicit budget (the
  // internal non-convergence safety cap still applies).
  int max_phases = 0;
  // Cooperative cancellation, observed at phase boundaries. src/ code may
  // not read wall clocks (determinism lint), so wall-clock budgets are the
  // caller's job: flip this token from outside and the solver returns
  // kBudgetExhausted with its partial lambda. This is the one field of
  // the limits that crosses threads mid-solve; the pointee being atomic
  // is what makes that sound (checked by flexnets_analyze).
  const std::atomic<bool>* cancel FLEXNETS_ATOMIC_SHARED = nullptr;
};

struct McfResult {
  // Feasible concurrent-flow fraction: the best lower bound any completed
  // phase proved (its routed flow scaled by its measured congestion).
  double lambda = 0.0;
  // Smallest LP-duality upper bound on lambda* seen (checked before phase
  // 1 and after every completed phase); +infinity when none was computed
  // (empty instance, reference solver).
  double lambda_upper = std::numeric_limits<double>::infinity();
  int phases = 0;        // completed GK phases
  long long dijkstra_calls = 0;
  // kOk when the solve finished: either the certificate closed
  // (lambda >= (1-eps) * lambda_upper >= (1-eps) * lambda*), or GK's own
  // D(l) >= 1 stop fired first, which keeps lambda >= (1-eps)^3 * lambda*.
  // kBudgetExhausted when an McfLimits budget stopped the loop first;
  // kNonConverged when the internal safety cap fired. Every status
  // reports the feasible lambda and the proven lambda_upper so far.
  Status status;
};

// Preconditions: capacities > 0, demands > 0, every commodity's dst
// reachable from its src. eps in (0, 0.5].
McfResult max_concurrent_flow(int num_nodes,
                              const std::vector<DirectedEdge>& edges,
                              const std::vector<McfCommodity>& commodities,
                              double eps = 0.1, const McfLimits& limits = {});

}  // namespace flexnets::flow
