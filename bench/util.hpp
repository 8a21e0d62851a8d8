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

// Monotonic wall time in nanoseconds, for timing benchmark regions. Wall
// time is read here, in bench/, on purpose: src/ is clock-free
// (flexnets_analyze, `wall-clock`).
double monotonic_ns();

// Peak resident set size of this process in kilobytes (VmHWM from
// /proc/self/status); 0.0 where the proc interface is unavailable.
double peak_rss_kb();

// ---------------------------------------------------------------------------
// Strict flag parsing: the one parser of every bench binary that takes
// flags. `valued` names the flags that take one value, as `--flag value`
// or `--flag=value`; `switches` names those that take none. set(flag,
// value) applies each flag in argv order (a switch gets an empty value).
// An argument that names no such flag, or a valued flag without its
// value, exits 2 naming it, followed by `usage`, the binary's usage line.
using FlagSetter =
    std::function<void(const std::string& flag, const std::string& value)>;
void parse_flags(int argc, char** argv, const std::string& usage,
                 const std::vector<std::string>& valued,
                 const std::vector<std::string>& switches,
                 const FlagSetter& set);

// `value` as an integer of at least `min`; otherwise exits 2 naming `flag`,
// so a typo cannot silently serialize a long run.
int at_least(const std::string& flag, const std::string& value, int min);

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
// The flags of a bench that runs resilient grids
// (run_grid_resilient_sharded, core/journal.hpp, src/sweep):
//   --threads N          points computed side by side in this process
//   --workers N          points sharded across N worker subprocesses, this
//                        same binary re-exec'ed with --sweep-worker=<grid>
//   --max-attempts N     tries before a crashing point is quarantined
//   --journal <path>     append each finished point durably
//   --resume <path>      restore the points journaled in <path>; may repeat
//                        (partial journals, e.g. a killed coordinator's
//                        merged file plus an older run's, are merged
//                        last-path-wins by core::merge_journals)
//   --point-sleep-ms N   pause in each computed point; gives the CI
//                        kill-mid-sweep gates a window to SIGKILL in
//   --sweep-worker=G     (internal) serve grid G's leases over fds 3/4
struct GridFlags {
  int threads = 0;  // 0: FLEXNETS_THREADS, else hardware_concurrency
  int workers = 0;  // 0/1: in-process execution (no subprocesses)
  int max_attempts = 3;
  std::string journal_path;
  std::vector<std::string> resume_paths;
  int point_sleep_ms = 0;
  std::string worker_grid;  // nonempty: this process IS a sweep worker

  // Applies one of kGridFlags (parse_flags' setter).
  void set(const std::string& flag, const std::string& value);
};
inline const std::vector<std::string> kGridFlags = {
    "--threads", "--workers",        "--max-attempts", "--journal",
    "--resume",  "--point-sleep-ms", "--sweep-worker"};
inline constexpr char kGridUsage[] =
    "[--threads N] [--workers N] [--max-attempts N] [--journal <path>] "
    "[--resume <path>]... [--point-sleep-ms N]";

// This process's argv rebuilt for a worker: coordinator-only flags
// (--workers, --max-attempts, --journal, --resume) are stripped and
// --sweep-worker=<key_prefix> appended. Everything else — scale, seeds,
// --threads, --point-sleep-ms — passes through unchanged so the worker
// rebuilds the exact same grid.
std::vector<std::string> worker_args(int argc, char** argv,
                                     const std::string& key_prefix);

// The journal writer plus the completed-point index a resumed run skips.
// Inactive (no-op journal, empty index) when the flags are empty.
struct ResilientState {
  core::Journal journal;
  std::map<std::string, core::JournalRecord> completed;
};
// Opens the journal / loads the resume index per the flags; resuming
// continues the newest named file unless a different journal was named.
// A sweep worker opens nothing: the coordinator alone writes the merged
// file. Exits with a message on an unopenable journal or a corrupt resume
// file (a torn final line from a kill is fine — it is dropped and that
// point reruns).
void init_resilient_state(const GridFlags& flags, ResilientState* state);

// A grid point: fn(i) returns point i's record — its named values and the
// status it ended with (a fluid solve can stop budgeted or non-converged
// and still carry its feasible values). The grid sets the key,
// "<key_prefix>/<i>".
using PointFn = std::function<core::JournalRecord(std::size_t)>;

// Journaled fault-contained grid: a failed point keeps a structured
// non-ok code in its record while the rest of the grid completes. It runs
// in-process on --threads threads, or with --workers N across N worker
// subprocesses (sweep::run_sharded), where the coordinator alone writes
// the merged journal; in worker mode this call serves leases for its grid
// and exits the process (exit 2 when the worker names another grid).
// fn(i) must depend only on i — that is what makes the merged result
// bit-identical to the in-process run for ANY worker count, kill
// schedule, or retry history.
std::vector<core::JournalRecord> run_grid_resilient_sharded(
    int argc, char** argv, std::size_t n, const std::string& key_prefix,
    ResilientState* state, const GridFlags& flags, const PointFn& fn);

// Order-sensitive digest over every record's values (exact double bits) —
// the analytic-grid analogue of core::fluid_sweep_digest.
std::uint64_t grid_digest(const std::vector<core::JournalRecord>& records);

// The "digest <label>: <16 hex digits> (N points, F failed)" line the CI
// resilience gate greps to compare a killed-and-resumed run against an
// uninterrupted one.
void print_digest_line(const std::string& label, std::uint64_t digest,
                       std::size_t points, std::size_t failed);

std::size_t count_failed(const std::vector<core::JournalRecord>& records);

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
