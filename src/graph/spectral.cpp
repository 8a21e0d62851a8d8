#include "graph/spectral.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace flexnets::graph {

namespace {

// y = A x for the adjacency matrix of g. Each y[u] sums its neighbors in
// incident (edge-id) order.
void adj_multiply(const Graph& g, const std::vector<double>& x,
                  std::vector<double>& y) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    double acc = 0.0;
    for (const NodeId v : g.neighbors(u)) acc += x[v];
    y[u] = acc;
  }
}

void remove_mean(std::vector<double>& x) {
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  for (double& v : x) v -= mean;
}

double norm(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s);
}

}  // namespace

SecondEigen second_eigenvector(const Graph& g, int iters, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  SecondEigen out;
  if (n < 2) return out;
  Rng rng(seed);
  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.next_double() - 0.5;
  remove_mean(x);

  double lambda = 0.0;
  for (int it = 0; it < iters; ++it) {
    adj_multiply(g, x, y);
    remove_mean(y);  // stay orthogonal to the all-ones vector
    const double ny = norm(y);
    if (ny == 0.0) return out;
    lambda = ny / (norm(x) > 0 ? norm(x) : 1.0);
    for (std::size_t i = 0; i < n; ++i) x[i] = y[i] / ny;
  }
  // Power iteration on A (not A^2) can oscillate when the dominant
  // orthogonal eigenvalue is negative; |lambda| is still the magnitude.
  out.lambda = std::abs(lambda);
  out.vec = std::move(x);
  return out;
}

double second_eigenvalue(const Graph& g, int iters, std::uint64_t seed) {
  return second_eigenvector(g, iters, seed).lambda;
}

double ramanujan_bound(int d) { return 2.0 * std::sqrt(static_cast<double>(d - 1)); }

}  // namespace flexnets::graph
