// TmView suite: the streaming/implicit TM against the materialized
// generators on one topology. The contract is exact — same commodity
// stream in the same order with the same double bits, so the same GK
// instance and lambda — plus consistency of the closed-form aggregates and
// the commodity-cap guard on the GK materialization path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "flow/tm_view.hpp"
#include "topo/jellyfish.hpp"

namespace flexnets::flow {
namespace {

std::vector<Commodity> stream(const TmView& view) {
  std::vector<Commodity> out;
  view.for_each([&](topo::NodeId src, topo::NodeId dst, double d) {
    out.push_back({src, dst, d});
  });
  return out;
}

// Same commodities, same order, same bits.
void expect_same_stream(const TrafficMatrix& tm, const TmView& view) {
  const auto got = stream(view);
  ASSERT_EQ(got.size(), tm.commodities.size());
  ASSERT_EQ(view.num_commodities(),
            static_cast<std::int64_t>(tm.commodities.size()));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src_tor, tm.commodities[i].src_tor) << "commodity " << i;
    EXPECT_EQ(got[i].dst_tor, tm.commodities[i].dst_tor) << "commodity " << i;
    EXPECT_EQ(got[i].demand, tm.commodities[i].demand) << "commodity " << i;
  }
}

TEST(TmView, ActiveRackSelectionMatchesOracle) {
  // perfbench picks racks through the _csr name; it must be the same draw.
  const auto t = topo::jellyfish(40, 5, 4, 6);
  EXPECT_EQ(pick_active_racks_csr(t, 17, 9), pick_active_racks(t, 17, 9));
}

TEST(TmView, AllToAllStreamsTheMaterializedOrder) {
  const auto t = topo::jellyfish(24, 4, 3, 1);
  const auto active = pick_active_racks(t, 12, 2);
  expect_same_stream(all_to_all_tm(t, active), all_to_all_view(t, active));
}

// The explicit families reach TmView by wrapping their materialized
// builders; the wrap must keep each family's order and bits.
TEST(TmView, PermutationStreamsTheMaterializedOrder) {
  const auto t = topo::jellyfish(24, 4, 3, 1);
  const auto tm = random_permutation_tm(t, pick_active_racks(t, 12, 5), 5);
  expect_same_stream(tm, TmView::from_traffic_matrix(tm));
}

TEST(TmView, LongestMatchingStreamsTheMaterializedOrder) {
  const auto t = topo::jellyfish(24, 4, 3, 1);
  const auto tm = longest_matching_tm(t, pick_active_racks(t, 16, 3));
  expect_same_stream(tm, TmView::from_traffic_matrix(tm));
}

TEST(TmView, FromTrafficMatrixIsAnExactAdapter) {
  const auto t = topo::jellyfish(16, 4, 2, 8);
  const auto tm = random_permutation_tm(t, t.tors(), 4);
  expect_same_stream(tm, TmView::from_traffic_matrix(tm));
}

TEST(TmView, EmptyViews) {
  const auto t = topo::jellyfish(8, 3, 2, 1);
  EXPECT_TRUE(all_to_all_view(t, {}).empty());
  EXPECT_TRUE(all_to_all_view(t, {3}).empty());  // < 2 active racks
  EXPECT_TRUE(TmView::explicit_pairs({}).empty());
}

TEST(TmView, ClosedFormAggregatesMatchEnumeration) {
  const auto t = topo::jellyfish(30, 5, 4, 2);
  const auto view = all_to_all_view(t, pick_active_racks(t, 20, 7));

  double total = 0.0;
  std::vector<double> out(static_cast<std::size_t>(t.num_switches()), 0.0);
  std::vector<double> in(out.size(), 0.0);
  view.for_each([&](topo::NodeId src, topo::NodeId dst, double d) {
    total += d;
    out[static_cast<std::size_t>(src)] += d;
    in[static_cast<std::size_t>(dst)] += d;
  });

  EXPECT_NEAR(view.total_demand(), total, 1e-9 * (1.0 + total));
  const auto hose_out = view.hose_out_demand(t.num_switches());
  const auto hose_in = view.hose_in_demand(t.num_switches());
  for (std::size_t s = 0; s < out.size(); ++s) {
    EXPECT_NEAR(hose_out[s], out[s], 1e-9 * (1.0 + out[s])) << "switch " << s;
    EXPECT_NEAR(hose_in[s], in[s], 1e-9 * (1.0 + in[s])) << "switch " << s;
  }

  // demand_across against enumeration for an arbitrary cut.
  std::vector<char> side(out.size(), 0);
  for (std::size_t s = 0; s < side.size(); s += 3) side[s] = 1;
  double across = 0.0;
  view.for_each([&](topo::NodeId src, topo::NodeId dst, double d) {
    if (side[static_cast<std::size_t>(src)] &&
        !side[static_cast<std::size_t>(dst)]) {
      across += d;
    }
  });
  EXPECT_NEAR(view.demand_across(side), across, 1e-9 * (1.0 + across));
}

TEST(TmView, GkInstanceIsBitIdenticalToMaterializedPath) {
  const auto t = topo::jellyfish(32, 6, 4, 1);
  const auto tm = all_to_all_tm(t, t.tors());
  const auto view = all_to_all_view(t, t.tors());

  const auto cache = build_throughput_cache(t);
  const auto want = build_mcf_instance(cache, tm);
  const auto got = build_mcf_instance(cache, view);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_EQ(got->num_nodes, want.num_nodes);
  ASSERT_EQ(got->edges.size(), want.edges.size());
  for (std::size_t e = 0; e < want.edges.size(); ++e) {
    EXPECT_EQ(got->edges[e].from, want.edges[e].from);
    EXPECT_EQ(got->edges[e].to, want.edges[e].to);
    EXPECT_EQ(got->edges[e].capacity, want.edges[e].capacity);
  }
  ASSERT_EQ(got->commodities.size(), want.commodities.size());
  for (std::size_t c = 0; c < want.commodities.size(); ++c) {
    EXPECT_EQ(got->commodities[c].src, want.commodities[c].src);
    EXPECT_EQ(got->commodities[c].dst, want.commodities[c].dst);
    EXPECT_EQ(got->commodities[c].demand, want.commodities[c].demand);
  }
}

TEST(TmView, CommodityCapRefusesAsStructuredInvalidInput) {
  const auto t = topo::jellyfish(16, 4, 2, 1);
  const auto view = all_to_all_view(t, t.tors());
  const auto cache = build_throughput_cache(t);

  // 16 racks all-to-all = 240 commodities; a cap of 100 must refuse
  // without materializing anything.
  const auto refused = build_mcf_instance(cache, view, 100);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidInput);

  // The budgeted entry surfaces the same refusal as (lambda 0, status).
  const auto r =
      per_server_throughput_budgeted(t, view, {0.1, {}}, cache, 100);
  EXPECT_EQ(r.lambda, 0.0);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidInput);

  // Raising the cap un-refuses the same view.
  EXPECT_TRUE(build_mcf_instance(cache, view, 240).ok());
}

TEST(TmView, GkLambdaBitIdenticalThroughCsrPath) {
  const auto t = topo::jellyfish(32, 6, 4, 1);
  const ThroughputOptions opts{0.1, {}};

  const auto tm = all_to_all_tm(t, t.tors());
  const double want = per_server_throughput(t, tm, opts);
  const double got =
      per_server_throughput(t, all_to_all_view(t, t.tors()), opts);
  EXPECT_EQ(got, want);  // exact double equality, not NEAR

  const auto perm = random_permutation_tm(t, pick_active_racks(t, 16, 7), 7);
  EXPECT_EQ(per_server_throughput(t, TmView::from_traffic_matrix(perm), opts),
            per_server_throughput(t, perm, opts));
}

}  // namespace
}  // namespace flexnets::flow
