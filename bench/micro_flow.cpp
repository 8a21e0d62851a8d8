// Micro-benchmarks for the fluid-flow engine: Garg-Koenemann solver
// scaling in topology size and approximation parameter.
//
// Two modes:
//   (default)      google-benchmark suite, human-oriented.
//   --json [path]  runs the pinned reference cases with BOTH the optimized
//                  solver and the frozen pre-optimization baseline
//                  (flow/mcf_reference.hpp) and writes BENCH_MCF.json —
//                  the recorded perf trajectory tools/ci.sh smoke-checks.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "flow/mcf_reference.hpp"
#include "flow/throughput.hpp"
#include "flow/tm_generators.hpp"
#include "perf_json.hpp"
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

// ---------------------------------------------------------------------------
// --json mode: pinned instances, optimized vs frozen-reference solver.

using SolverFn = flow::McfResult (*)(int, const std::vector<flow::DirectedEdge>&,
                                     const std::vector<flow::McfCommodity>&,
                                     double);

// Pins the optimized solver to the 4-argument shape SolverFn expects (the
// real entry grew an optional McfLimits parameter).
flow::McfResult optimized_solver(int num_nodes,
                                 const std::vector<flow::DirectedEdge>& edges,
                                 const std::vector<flow::McfCommodity>& cs,
                                 double eps) {
  return flow::max_concurrent_flow(num_nodes, edges, cs, eps);
}

bench::PerfCase run_solver_case(const std::string& name, SolverFn solver,
                                const flow::McfInstance& inst, double eps,
                                int reps) {
  flow::McfResult r;
  const double ns = bench::time_median_ns(reps, [&] {
    r = solver(inst.num_nodes, inst.edges, inst.commodities, eps);
  });
  bench::PerfCase c;
  c.name = name;
  c.add("ns_per_op", ns);
  c.add("dijkstra_calls", static_cast<double>(r.dijkstra_calls));
  c.add("phases", static_cast<double>(r.phases));
  c.add("lambda", r.lambda);
  // The frozen reference proves no upper bound (it reports +infinity).
  if (std::isfinite(r.lambda_upper)) c.add("lambda_upper", r.lambda_upper);
  std::printf(
      "  %-32s %10.2f ms  dijkstra=%lld phases=%d lambda=%.4f upper=%.4f\n",
      name.c_str(), ns / 1e6, static_cast<long long>(r.dijkstra_calls),
      r.phases, r.lambda, r.lambda_upper);
  return c;
}

int run_json_mode(const std::string& path) {
  std::vector<bench::PerfCase> cases;
  const double eps = 0.1;
  const int reps = 3;

  // The acceptance-gate reference case: all-to-all on a 32-switch
  // Jellyfish — 992 commodities from 32 source groups.
  {
    const auto t = topo::jellyfish(32, 6, 4, 1);
    const auto tm = flow::all_to_all_tm(t, t.tors());
    const auto inst =
        flow::build_mcf_instance(flow::build_throughput_cache(t), tm);
    std::printf("mcf all-to-all jellyfish32 (%zu commodities, %zu edges):\n",
                inst.commodities.size(), inst.edges.size());
    auto opt = run_solver_case("a2a_jf32_eps10", optimized_solver,
                               inst, eps, reps);
    const auto ref =
        run_solver_case("a2a_jf32_eps10_reference",
                        flow::reference_max_concurrent_flow, inst, eps, reps);
    opt.add("speedup_vs_reference",
            ref.metrics[0].second / opt.metrics[0].second);
    cases.push_back(opt);
    cases.push_back(ref);
  }

  // A matching TM (distinct sources, near-singleton groups): records how
  // much of the win survives when source grouping cannot help.
  {
    const auto t = topo::jellyfish(64, 6, 4, 1);
    const auto active = flow::pick_active_racks(t, 32, 1);
    const auto tm = flow::longest_matching_tm(t, active);
    const auto inst =
        flow::build_mcf_instance(flow::build_throughput_cache(t), tm);
    std::printf("mcf matching jellyfish64 (%zu commodities):\n",
                inst.commodities.size());
    auto opt = run_solver_case("matching_jf64_eps10",
                               optimized_solver, inst, eps, reps);
    const auto ref =
        run_solver_case("matching_jf64_eps10_reference",
                        flow::reference_max_concurrent_flow, inst, eps, reps);
    opt.add("speedup_vs_reference",
            ref.metrics[0].second / opt.metrics[0].second);
    cases.push_back(opt);
    cases.push_back(ref);
  }

  return bench::write_perf_json(path, "micro_flow", cases) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  if (bench::parse_json_flag(argc, argv, "BENCH_MCF.json", &path)) {
    return run_json_mode(path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
