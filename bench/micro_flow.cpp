// Micro-benchmarks for the fluid-flow engine: Garg-Koenemann solver
// scaling in topology size and approximation parameter (google-benchmark).
#include <benchmark/benchmark.h>

#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "topo/jellyfish.hpp"

namespace {

using namespace flexnets;

void BM_GargKoenemann(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const double eps = static_cast<double>(state.range(1)) / 100.0;
  const auto t = topo::jellyfish(n, 6, 4, 1);
  const auto active = flow::pick_active_racks(t, n / 2, 1);
  const auto tm = flow::longest_matching_tm(t, active);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::per_server_throughput(t, tm, {eps}));
  }
  state.SetLabel("n=" + std::to_string(n) + " eps=" + std::to_string(eps));
}
BENCHMARK(BM_GargKoenemann)
    ->Args({16, 10})
    ->Args({32, 10})
    ->Args({64, 10})
    ->Args({32, 5})
    ->Unit(benchmark::kMillisecond);

void BM_GargKoenemannAllToAll(benchmark::State& state) {
  // The source-grouped hot case: every ToR is the source of n-1
  // commodities, so one shortest-path tree serves a whole group.
  const int n = static_cast<int>(state.range(0));
  const auto t = topo::jellyfish(n, 6, 4, 1);
  const auto tm = flow::all_to_all_tm(t, t.tors());
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::per_server_throughput(t, tm, {0.1}));
  }
  state.SetLabel("n=" + std::to_string(n) + " a2a");
}
BENCHMARK(BM_GargKoenemannAllToAll)->Arg(16)->Arg(32)->Unit(
    benchmark::kMillisecond);

void BM_LongestMatchingTm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto t = topo::jellyfish(n, 8, 4, 1);
  const auto active = flow::pick_active_racks(t, n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::longest_matching_tm(t, active));
  }
}
BENCHMARK(BM_LongestMatchingTm)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace
