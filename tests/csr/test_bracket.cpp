// Property suite for the cheap throughput bracket: on every family/TM pair
// small enough to solve, the bracket must overlap GK's certified interval
// [gk.lambda, gk.upper], which contains lambda_true. Both are sound, so
//     bracket.lower <= gk.upper + tol   (bracket.lower <= lambda_true)
//     gk.lambda <= bracket.upper + tol  (lambda_true <= bracket.upper)
// Everything runs under FLEXNETS_AUDIT so the bracket's internal
// lower-vs-upper audit checks and GK's lower-vs-dual audit fire too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "flow/bracket.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "flow/tm_view.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"

namespace flexnets::flow {
namespace {

constexpr double kEps = 0.1;
constexpr double kTol = 1e-9;

void expect_bracket_contains_gk(const topo::Topology& t, const TmView& tm,
                                const std::string& label) {
  AuditScope audit(true);
  const auto br = throughput_bracket(t, tm);
  ASSERT_TRUE(br.status.ok()) << label << ": " << br.status.to_string();
  EXPECT_LE(br.lower, br.upper + kTol) << label;
  EXPECT_GE(br.lower, 0.0) << label;
  EXPECT_LE(br.upper, 1.0 + kTol) << label;

  const auto gk = per_server_throughput_budgeted(
      t, tm, {kEps, {}}, build_throughput_cache(t));
  ASSERT_TRUE(gk.status.ok()) << label << ": " << gk.status.to_string();
  EXPECT_LE(br.lower, gk.upper + kTol)
      << label << ": constructive lower " << br.lower
      << " exceeds GK's dual bound " << gk.upper;
  EXPECT_LE(gk.lambda, br.upper + kTol)
      << label << ": upper " << br.upper << " cut below GK's feasible "
      << gk.lambda;
}

void expect_bracket_on_standard_tms(const topo::Topology& t,
                                    const std::string& label) {
  expect_bracket_contains_gk(t, all_to_all_view(t, t.tors()),
                             label + "/a2a");
  const auto active =
      pick_active_racks(t, static_cast<int>(t.tors().size()) / 2, 7);
  expect_bracket_contains_gk(
      t, TmView::from_traffic_matrix(random_permutation_tm(t, active, 7)),
      label + "/permutation");
  expect_bracket_contains_gk(
      t, TmView::from_traffic_matrix(longest_matching_tm(t, active)),
      label + "/matching");
}

TEST(Bracket, ContainsGkOnJellyfish) {
  expect_bracket_on_standard_tms(topo::jellyfish(50, 7, 6, 1),
                                 "jellyfish50x7");
  expect_bracket_on_standard_tms(topo::jellyfish(32, 5, 4, 3),
                                 "jellyfish32x5");
}

TEST(Bracket, ContainsGkOnXpander) {
  expect_bracket_on_standard_tms(topo::xpander(5, 9, 6, 1).topo, "xpander54x5");
}

TEST(Bracket, ContainsGkOnFatTree) {
  expect_bracket_on_standard_tms(topo::fat_tree(8).topo, "fattree8");
  expect_bracket_on_standard_tms(topo::fat_tree_stripped(8, 7).topo,
                                 "fattree8stripped");
}

TEST(Bracket, EmptyTmBracketsToZero) {
  const auto t = topo::jellyfish(16, 4, 2, 1);
  const auto br = throughput_bracket(t, TmView::explicit_pairs({}));
  EXPECT_TRUE(br.status.ok());
  EXPECT_EQ(br.lower, 0.0);
  EXPECT_EQ(br.upper, 0.0);
}

TEST(Bracket, DeterministicInOptions) {
  const auto t = topo::jellyfish(40, 6, 4, 2);
  const auto view = all_to_all_view(t, t.tors());
  const auto a = throughput_bracket(t, view);
  const auto b = throughput_bracket(t, view);
  EXPECT_EQ(a.lower, b.lower);
  EXPECT_EQ(a.upper, b.upper);
  EXPECT_EQ(a.upper_spectral_cut, b.upper_spectral_cut);
}

TEST(Bracket, UpperIsTheMinimumOfItsComponents) {
  const auto t = topo::jellyfish(50, 7, 6, 4);
  const auto br = throughput_bracket(t, all_to_all_view(t, t.tors()));
  EXPECT_LE(br.upper, br.upper_node_cut + kTol);
  EXPECT_LE(br.upper, br.upper_spectral_cut + kTol);
  EXPECT_LE(br.upper, br.upper_path_length + kTol);
}

TEST(Bracket, MoreTreesNeverLoosenTheLowerBoundMuch) {
  // The lower bound is a feasible routing; more trees is a different
  // feasible routing, still a valid lower bound — both must stay inside
  // the (shared) upper.
  const auto t = topo::jellyfish(40, 6, 4, 5);
  const auto view = all_to_all_view(t, t.tors());
  BracketOptions one;
  one.num_trees = 1;
  BracketOptions many;
  many.num_trees = 16;
  const auto a = throughput_bracket(t, view, one);
  const auto b = throughput_bracket(t, view, many);
  EXPECT_LE(a.lower, a.upper + kTol);
  EXPECT_LE(b.lower, b.upper + kTol);
  EXPECT_GT(b.lower, 0.0);
}

TEST(Bracket, PartitionedDemandIsExactlyZero) {
  AuditScope audit(true);
  // Two disjoint triangles, demand crossing between them: no routing
  // exists, so the bracket collapses to the exact answer [0, 0] with the
  // structured kPartitioned status.
  const topo::Topology t(
      "split",
      graph::Graph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}),
      {1, 1, 1, 1, 1, 1});
  const auto crossing = TmView::explicit_pairs({{0, 3, 1.0}});
  const auto br = throughput_bracket(t, crossing);
  EXPECT_EQ(br.status.code(), StatusCode::kPartitioned);
  EXPECT_EQ(br.lower, 0.0);
  EXPECT_EQ(br.upper, 0.0);

  // Demand inside one component: the uppers stand, the tree lower bound
  // degrades to 0 (trees are rooted in one component) but stays sound.
  const auto inside = TmView::explicit_pairs({{0, 2, 1.0}});
  const auto br2 = throughput_bracket(t, inside);
  EXPECT_TRUE(br2.status.ok());
  EXPECT_LE(br2.lower, br2.upper + kTol);
  EXPECT_GT(br2.upper, 0.0);
}

TEST(Bracket, FatTreeAllToAllIsNearOne) {
  // Sanity anchor: a full-bandwidth fat-tree routes all-to-all at lambda 1;
  // the upper bound must not cut below that and the constructive lower
  // must find a nonzero feasible routing.
  const auto t = topo::fat_tree(8).topo;
  const auto br = throughput_bracket(t, all_to_all_view(t, t.tors()));
  EXPECT_GE(br.upper, 1.0 - kTol);
  EXPECT_GT(br.lower, 0.0);
}

}  // namespace
}  // namespace flexnets::flow
