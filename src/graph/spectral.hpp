// Spectral expansion estimation for (near-)regular graphs.
//
// Jellyfish/Xpander owe their performance to being good expanders; the
// test-suite verifies generated instances have a healthy spectral gap
// (second adjacency eigenvalue well below the Ramanujan-style bound).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace flexnets::graph {

// Estimates lambda_2 = max(|second largest|, |most negative|) eigenvalue of
// the adjacency matrix, by power iteration on the component orthogonal to
// the all-ones vector (exact for regular graphs, whose top eigenvector is
// all-ones). `iters` power-iteration steps; deterministic given `seed`.
// `vec` is the final mean-free unit iterate, which flow/bracket.cpp cuts
// on by sign and median.
struct SecondEigen {
  double lambda = 0.0;  // |estimate|; 0 for graphs with < 2 nodes
  std::vector<double> vec;  // empty when lambda is 0 by convention
};
SecondEigen second_eigenvector(const Graph& g, int iters, std::uint64_t seed);

// second_eigenvector(g, iters, seed).lambda.
double second_eigenvalue(const Graph& g, int iters = 200,
                         std::uint64_t seed = 1);

// Ramanujan bound 2*sqrt(d-1) for a d-regular graph: graphs with
// second_eigenvalue below ~1.1x this bound are near-optimal expanders.
double ramanujan_bound(int d);

}  // namespace flexnets::graph
