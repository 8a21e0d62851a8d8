// Shared helpers for the figure-reproduction benchmark binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "routing/strategy.hpp"
#include "topo/fat_tree.hpp"
#include "topo/topology.hpp"

namespace flexnets::bench {

// Prints the standard experiment banner: which paper item this binary
// regenerates and whether it runs at paper scale (REPRO_FULL=1) or the
// scaled-down default.
void banner(const std::string& figure, const std::string& description);

// Parses `--threads N` / `--threads=N` from a bench binary's argv.
// Returns 0 when absent, meaning auto (FLEXNETS_THREADS env, else
// hardware_concurrency — core::resolve_threads). Exits with usage on a
// malformed value so a typo cannot silently serialize a long run.
int parse_threads(int argc, char** argv);

// Evaluates fn(i) for each of the n grid cells on `threads` workers
// (core::run_indexed semantics) and returns the results in index order.
// fn must depend only on its index, so the grid's output is independent
// of thread count and scheduling.
template <typename F,
          typename T = std::invoke_result_t<std::decay_t<F>, std::size_t>>
std::vector<T> run_grid(std::size_t n, int threads, F&& fn) {
  std::vector<T> out(n);
  core::run_indexed(
      n, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

// ---------------------------------------------------------------------------
// Resilient execution flags shared by the fig benches (core/journal.hpp):
//   --journal <path>        append each finished grid point durably
//   --resume <path>         skip points already in <path>, append the rest
//                           to the same file (implies --journal <path>)
//   --point-sleep-ms <n>    pause inside each *computed* point; gives the
//                           CI kill-mid-sweep test a window to SIGKILL in
struct ResilientFlags {
  std::string journal_path;
  // --resume may repeat: partial journals (e.g. a killed coordinator's
  // merged file plus an older run's) are merged last-path-wins
  // (core::merge_journals) before any point is skipped.
  std::vector<std::string> resume_paths;
  int point_sleep_ms = 0;
};
// Exits with usage on a malformed value, like parse_threads.
ResilientFlags parse_resilient_flags(int argc, char** argv);

// ---------------------------------------------------------------------------
// Sharded execution flags (src/sweep): the grid is partitioned into
// single-point leases served by worker subprocesses — this same binary
// re-exec'ed with --sweep-worker=<grid>.
//   --workers N        coordinator mode with N worker subprocesses
//   --max-attempts N   retries before a crashy point is quarantined
//   --sweep-worker=G   (internal) serve grid G's leases over fds 3/4
struct ShardFlags {
  int workers = 0;  // 0/1 = in-process execution (no subprocesses)
  int max_attempts = 3;
  std::string worker_grid;  // nonempty: this process IS a sweep worker
};
// Exits with usage on a malformed value, like parse_threads.
ShardFlags parse_shard_flags(int argc, char** argv);

// This process's argv rebuilt for a worker: coordinator-only flags
// (--workers, --max-attempts, --journal, --resume, --json) are stripped
// and --sweep-worker=<key_prefix> appended. Everything else — scale,
// seeds, --threads, --point-sleep-ms — passes through unchanged so the
// worker rebuilds the exact same grid.
std::vector<std::string> worker_args(int argc, char** argv,
                                     const std::string& key_prefix);

// The journal writer plus the completed-point index a resumed run skips.
// Inactive (no-op journal, empty index) when the flags are empty.
struct ResilientState {
  core::Journal journal;
  std::map<std::string, core::JournalRecord> completed;
};
// Opens the journal / loads the resume index per the flags. Exits with a
// message on an unopenable journal or a corrupt resume file (a torn final
// line from a kill is fine — it is dropped and that point reruns).
void init_resilient_state(const ResilientFlags& flags, ResilientState* state);

// fluid_sweep_resilient driven by the shared flags: restores completed
// points from state->completed, journals under "<key_prefix>/<i>", and
// sleeps point_sleep_ms inside each computed point.
std::vector<core::FluidPointRecord> sweep_with_flags(
    const topo::Topology& topo, core::FluidSweepOptions opts,
    const std::string& key_prefix, ResilientState* state,
    int point_sleep_ms);

// Journaled fault-contained grid for the analytic benches: fn(i) returns
// the point's named values; a failed point keeps a structured non-ok code
// in its record while the rest of the grid completes.
std::vector<core::JournalRecord> run_grid_resilient(
    std::size_t n, int threads, const std::string& key_prefix,
    ResilientState* state, int point_sleep_ms,
    const std::function<std::vector<std::pair<std::string, double>>(
        std::size_t)>& fn);

// run_grid_resilient behind the sharding switch: with --workers N the
// grid runs across N worker subprocesses (sweep::run_sharded) and the
// coordinator alone writes the merged journal; in worker mode this call
// serves leases for its grid and exits the process. fn(i) must depend
// only on i — that is what makes the merged result bit-identical to the
// in-process run for ANY worker count, kill schedule, or retry history.
std::vector<core::JournalRecord> run_grid_resilient_sharded(
    int argc, char** argv, std::size_t n, int threads,
    const std::string& key_prefix, ResilientState* state,
    const ResilientFlags& rflags, const ShardFlags& sflags,
    const std::function<std::vector<std::pair<std::string, double>>(
        std::size_t)>& fn);

// sweep_with_flags behind the same switch, for the fluid-sweep benches:
// workers evaluate core::fluid_sweep_point per lease, so the sharded
// digest equals the serial fluid_sweep_digest bit for bit.
std::vector<core::FluidPointRecord> sweep_with_flags_sharded(
    int argc, char** argv, const topo::Topology& topo,
    core::FluidSweepOptions opts, const std::string& key_prefix,
    ResilientState* state, const ResilientFlags& rflags,
    const ShardFlags& sflags);

// Order-sensitive digest over every record's values (exact double bits) —
// the analytic-grid analogue of core::fluid_sweep_digest.
std::uint64_t grid_digest(const std::vector<core::JournalRecord>& records);

// The "digest <label>: <16 hex digits> (N points, F failed)" line the CI
// resilience gate greps to compare a killed-and-resumed run against an
// uninterrupted one.
void print_digest_line(const std::string& label, std::uint64_t digest,
                       std::size_t points, std::size_t failed);

std::size_t count_failed(const std::vector<core::JournalRecord>& records);
std::size_t count_failed(const std::vector<core::FluidPointRecord>& records);

// Formats a PacketResult row note (drops / incomplete counts) for sanity.
std::string health_note(const core::PacketResult& r);

// A packet-simulation contender: a topology plus a routing configuration.
struct Scenario {
  std::string label;
  const topo::Topology* topo = nullptr;
  routing::RoutingMode mode = routing::RoutingMode::kEcmp;
  RateBps server_rate = 10 * kGbps;  // raise to model "no server bottleneck"
};

// Measurement window used by the packet benches. The paper measures flows
// starting in [0.5s, 1.5s); the scaled default uses [20ms, 60ms).
core::PacketSimOptions default_packet_options(bool full);

// Runs one scenario point: arrival rate is `rate_per_active_server` times
// the number of servers on the pair distribution's active racks.
core::PacketResult run_point(const Scenario& s,
                             const workload::PairDistribution& pairs,
                             const workload::FlowSizeDistribution& sizes,
                             double rate_per_active_server,
                             std::uint64_t seed, bool full);

int active_server_count(const topo::Topology& t,
                        const workload::PairDistribution& pairs);

// The section 6.4 topology pair: a full-bandwidth fat-tree baseline and an
// Xpander built at ~33% lower cost with at least as many servers.
//   full:   fat-tree k=16 (1024 servers) vs Xpander 216x16p (1080 servers)
//   scaled: fat-tree k=8  (128 servers)  vs Xpander  54x8p  (162 servers)
struct Section64 {
  topo::FatTree fat_tree;
  topo::Topology xpander;
};
Section64 section64_topologies(bool full);

}  // namespace flexnets::bench
