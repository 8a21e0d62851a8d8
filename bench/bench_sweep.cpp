// Orchestrator overhead benchmark: points/second through the sharded
// sweep service (src/sweep) at workers={1,4}, plus the cost of the retry
// machinery when workers are crash-injected mid-grid.
//
// The grid is synthetic — a fixed hash spin per point — so the numbers
// isolate orchestration cost (spawn, leases, pipes, journal merge) from
// solver cost, and the whole bench stays under a couple of seconds. It
// takes no flags (any argument exits 2) but the internal --sweep-worker
// its own workers run with.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/journal.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"
#include "util.hpp"

namespace {

using namespace flexnets;

constexpr std::size_t kPoints = 96;
constexpr const char kPrefix[] = "bsw";

// ~1e5 dependent hashes per point: enough work that points/sec is not
// pure pipe latency, small enough that the bench finishes in seconds.
core::JournalRecord point(std::size_t i) {
  std::uint64_t acc = hash_words(99, i);
  for (std::uint64_t k = 0; k < 100000; ++k) acc = hash_words(acc, k);
  return {std::string(kPrefix) + "/" + std::to_string(i),
          StatusCode::kOk,
          "",
          {{"acc", static_cast<double>(acc % 1000000)},
           {"i", static_cast<double>(i)}}};
}

struct RunSample {
  double ns = 0;
  sweep::ShardedResult result;
};

RunSample run_once(int workers) {
  sweep::ShardedOptions opts;
  opts.exec_path = "/proc/self/exe";
  opts.args = {std::string("--sweep-worker=") + kPrefix};
  opts.workers = workers;
  opts.key_prefix = kPrefix;
  opts.backoff_base_ms = 1;
  RunSample s;
  const double begin = bench::monotonic_ns();
  auto r = sweep::run_sharded(kPoints, opts);
  s.ns = bench::monotonic_ns() - begin;
  if (!r.ok()) {
    std::fprintf(stderr, "bench_sweep: run_sharded(workers=%d): %s\n",
                 workers, r.status().to_string().c_str());
    std::exit(1);
  }
  s.result = std::move(*r);
  return s;
}

void print_run(const char* name, const RunSample& s) {
  std::printf("%-24s  ns_per_op=%.1f  points_per_sec=%.1f  retries=%zu  "
              "worker_deaths=%zu\n",
              name, s.ns / static_cast<double>(kPoints),
              static_cast<double>(kPoints) / (s.ns * 1e-9), s.result.retries,
              s.result.worker_deaths);
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid;
  bench::parse_flags(argc, argv, "bench_sweep", {"--sweep-worker"}, {},
                     [&](const std::string&, const std::string& value) {
                       grid = value;
                     });
  if (!grid.empty()) {
    if (grid != kPrefix) return 2;
    sweep::WorkerOptions opts;
    opts.num_points = kPoints;
    opts.key_prefix = kPrefix;
    opts.fn = [](std::size_t i) { return point(i); };
    return sweep::run_worker(opts);
  }

  const auto w1 = run_once(1);
  const auto w4 = run_once(4);
  // Retry overhead: crash three workers mid-grid (first attempt only) and
  // compare against the clean 4-worker run. Captures respawn + backoff +
  // recompute cost, not solver cost.
  setenv("FLEXNETS_CRASH_AT", "5,17,41", 1);
  const auto w4c = run_once(4);
  unsetenv("FLEXNETS_CRASH_AT");

  // Guard the headline contract while we are here: every execution
  // history must merge to the identical record list.
  auto strip = [](std::vector<core::JournalRecord> v) {
    for (auto& r : v) r.attempt = 0;
    return v;
  };
  if (strip(w4.result.records) != strip(w1.result.records) ||
      strip(w4c.result.records) != strip(w1.result.records)) {
    std::fprintf(stderr, "bench_sweep: sharded records diverged\n");
    return 1;
  }
  if (w4c.result.retries < 3 || w4c.result.worker_deaths < 3) {
    std::fprintf(stderr,
                 "bench_sweep: crash injection did not fire (retries=%zu, "
                 "deaths=%zu)\n",
                 w4c.result.retries, w4c.result.worker_deaths);
    return 1;
  }

  print_run("sweep_workers1", w1);
  print_run("sweep_workers4", w4);
  print_run("sweep_workers4_crash3", w4c);
  std::printf("retry_overhead_ratio=%.2f\n", w4c.ns / w4.ns);
  return 0;
}
