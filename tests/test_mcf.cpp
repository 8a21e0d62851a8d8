// Validation of the Garg-Koenemann solver against instances whose optimal
// concurrent-flow value is known analytically.
#include <gtest/gtest.h>

#include "flow/mcf.hpp"

namespace flexnets::flow {
namespace {

constexpr double kEps = 0.03;    // solver accuracy used in tests
constexpr double kTol = 0.12;    // acceptance band around the exact optimum

// The solver's certificate against a known optimum: the feasible lambda
// and the LP-duality bound bracket lambda_opt (up to rounding), and an ok
// status means the interval closed to within (1 - eps) -- on these small
// instances the certificate always fires before GK's D(l) >= 1 stop.
void expect_certificate(const McfResult& r, double lambda_opt, double eps) {
  EXPECT_LE(r.lambda, lambda_opt * (1.0 + 1e-9)) << "lower above optimum";
  EXPECT_GE(r.lambda_upper, lambda_opt * (1.0 - 1e-9))
      << "upper below optimum";
  if (r.status.ok()) {
    EXPECT_GE(r.lambda, (1.0 - eps) * r.lambda_upper)
        << "ok status with an open interval [" << r.lambda << ", "
        << r.lambda_upper << "]";
  }
}

TEST(Mcf, SingleEdgeSingleCommodity) {
  // One edge of capacity 2, demand 1 -> lambda* = 2 (but GK routes demand
  // fully each phase; lambda can exceed 1).
  std::vector<DirectedEdge> edges{{0, 1, 2.0}};
  std::vector<McfCommodity> cmds{{0, 1, 1.0}};
  const auto r = max_concurrent_flow(2, edges, cmds, kEps);
  EXPECT_NEAR(r.lambda, 2.0, 2.0 * kTol);
  expect_certificate(r, 2.0, kEps);
}

TEST(Mcf, BottleneckSharedByTwoCommodities) {
  // Two commodities share edge (1->2) of capacity 1; each demand 1.
  // lambda* = 0.5.
  std::vector<DirectedEdge> edges{
      {0, 1, 10.0}, {3, 1, 10.0}, {1, 2, 1.0}, {2, 4, 10.0}, {2, 5, 10.0}};
  std::vector<McfCommodity> cmds{{0, 4, 1.0}, {3, 5, 1.0}};
  const auto r = max_concurrent_flow(6, edges, cmds, kEps);
  EXPECT_NEAR(r.lambda, 0.5, 0.5 * kTol);
  expect_certificate(r, 0.5, kEps);
}

TEST(Mcf, ParallelPathsAggregateCapacity) {
  // src -> {a, b} -> dst, each path capacity 1; single demand 1 ->
  // lambda* = 2.
  std::vector<DirectedEdge> edges{
      {0, 1, 1.0}, {0, 2, 1.0}, {1, 3, 1.0}, {2, 3, 1.0}};
  std::vector<McfCommodity> cmds{{0, 3, 1.0}};
  const auto r = max_concurrent_flow(4, edges, cmds, kEps);
  EXPECT_NEAR(r.lambda, 2.0, 2.0 * kTol);
  expect_certificate(r, 2.0, kEps);
}

TEST(Mcf, MustSplitAcrossUnequalPaths) {
  // Two disjoint paths: capacity 3 (direct) and 1 (two-hop). demand 4 ->
  // lambda* = 1.
  std::vector<DirectedEdge> edges{{0, 3, 3.0}, {0, 1, 1.0}, {1, 3, 1.0}};
  std::vector<McfCommodity> cmds{{0, 3, 4.0}};
  const auto r = max_concurrent_flow(4, edges, cmds, kEps);
  EXPECT_NEAR(r.lambda, 1.0, kTol);
  expect_certificate(r, 1.0, kEps);
}

TEST(Mcf, TriangleAllToAll) {
  // Directed triangle with all 6 arcs capacity 1; commodities between all
  // 6 ordered pairs with demand 1. Direct arc per commodity -> lambda* = 1.
  std::vector<DirectedEdge> edges;
  std::vector<McfCommodity> cmds;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        edges.push_back({i, j, 1.0});
        cmds.push_back({i, j, 1.0});
      }
    }
  }
  const auto r = max_concurrent_flow(3, edges, cmds, kEps);
  EXPECT_NEAR(r.lambda, 1.0, kTol);
  expect_certificate(r, 1.0, kEps);
}

TEST(Mcf, LambdaScalesWithCapacity) {
  // Doubling all capacities doubles lambda (monotonicity property check).
  std::vector<DirectedEdge> e1{{0, 1, 1.0}, {1, 2, 1.0}};
  std::vector<DirectedEdge> e2{{0, 1, 2.0}, {1, 2, 2.0}};
  std::vector<McfCommodity> cmds{{0, 2, 1.0}};
  const auto r1 = max_concurrent_flow(3, e1, cmds, kEps);
  const auto r2 = max_concurrent_flow(3, e2, cmds, kEps);
  EXPECT_NEAR(r2.lambda / r1.lambda, 2.0, 0.15);
  expect_certificate(r1, 1.0, kEps);
  expect_certificate(r2, 2.0, kEps);
}

TEST(Mcf, EmptyInstances) {
  EXPECT_DOUBLE_EQ(
      max_concurrent_flow(2, {}, {{0, 1, 1.0}}, kEps).lambda, 0.0);
  EXPECT_DOUBLE_EQ(
      max_concurrent_flow(2, {{0, 1, 1.0}}, {}, kEps).lambda, 0.0);
}

TEST(Mcf, LongChainUnitCapacity) {
  // 10-hop chain of capacity 1, demand 2 -> lambda* = 0.5.
  std::vector<DirectedEdge> edges;
  for (int i = 0; i < 10; ++i) edges.push_back({i, i + 1, 1.0});
  std::vector<McfCommodity> cmds{{0, 10, 2.0}};
  const auto r = max_concurrent_flow(11, edges, cmds, kEps);
  EXPECT_NEAR(r.lambda, 0.5, 0.5 * kTol);
  expect_certificate(r, 0.5, kEps);
}

// Property sweep: the approximation guarantee must hold across eps values.
class McfEpsilon : public ::testing::TestWithParam<double> {};

TEST_P(McfEpsilon, WithinGuaranteeOnKnownInstance) {
  const double eps = GetParam();
  // Known optimum 0.5 (shared bottleneck).
  std::vector<DirectedEdge> edges{
      {0, 1, 10.0}, {3, 1, 10.0}, {1, 2, 1.0}, {2, 4, 10.0}, {2, 5, 10.0}};
  std::vector<McfCommodity> cmds{{0, 4, 1.0}, {3, 5, 1.0}};
  const auto r = max_concurrent_flow(6, edges, cmds, eps);
  EXPECT_LE(r.lambda, 0.5 * 1.02);              // never above optimum
  EXPECT_GE(r.lambda, 0.5 * (1.0 - 3.5 * eps));  // FPTAS lower bound
  expect_certificate(r, 0.5, eps);
}

INSTANTIATE_TEST_SUITE_P(EpsSweep, McfEpsilon,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2),
                         [](const auto& info) {
                           return "eps" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

}  // namespace
}  // namespace flexnets::flow
