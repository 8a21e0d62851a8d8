#include "util.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/digest.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"
#include "topo/xpander.hpp"

namespace flexnets::bench {

void banner(const std::string& figure, const std::string& description) {
  std::printf("=== %s — %s ===\n", figure.c_str(), description.c_str());
  std::printf("scale: %s (set REPRO_FULL=1 for paper-scale parameters)\n\n",
              core::repro_full() ? "PAPER-SCALE" : "scaled-down default");
}

double monotonic_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = 0.0;
      if (std::sscanf(line.c_str(), "VmHWM: %lf", &kb) == 1) return kb;
    }
  }
  return 0.0;
}

void parse_flags(int argc, char** argv, const std::string& usage,
                 const std::vector<std::string>& valued,
                 const std::vector<std::string>& switches,
                 const FlagSetter& set) {
  const auto fail = [&](const std::string& problem) {
    std::fprintf(stderr, "error: %s\nusage: %s\n", problem.c_str(),
                 usage.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    if (eq == std::string::npos && std::ranges::count(switches, flag) > 0) {
      set(flag, "");
    } else if (std::ranges::count(valued, flag) == 0) {
      fail("unknown argument '" + arg + "'");
    } else if (eq != std::string::npos && eq + 1 < arg.size()) {
      set(flag, arg.substr(eq + 1));
    } else if (eq == std::string::npos && i + 1 < argc &&
               std::strncmp(argv[i + 1], "--", 2) != 0) {
      set(flag, argv[++i]);
    } else {
      fail(flag + " wants a value");
    }
  }
}

int at_least(const std::string& flag, const std::string& value, int min) {
  int n = 0;
  const char* end = value.data() + value.size();
  const auto [last, ec] = std::from_chars(value.data(), end, n);
  if (ec != std::errc{} || last != end || n < min) {
    std::fprintf(stderr, "error: %s wants an integer >= %d, got '%s'\n",
                 flag.c_str(), min, value.c_str());
    std::exit(2);
  }
  return n;
}

void GridFlags::set(const std::string& flag, const std::string& value) {
  if (flag == "--threads") {
    threads = at_least(flag, value, 1);
  } else if (flag == "--workers") {
    workers = at_least(flag, value, 1);
  } else if (flag == "--max-attempts") {
    max_attempts = at_least(flag, value, 1);
  } else if (flag == "--journal") {
    journal_path = value;
  } else if (flag == "--resume") {
    resume_paths.push_back(value);
  } else if (flag == "--point-sleep-ms") {
    point_sleep_ms = at_least(flag, value, 0);
  } else if (flag == "--sweep-worker") {
    worker_grid = value;
  }
}

void init_resilient_state(const GridFlags& flags, ResilientState* state) {
  if (!flags.worker_grid.empty()) return;
  if (!flags.resume_paths.empty()) {
    const auto records = core::merge_journals(flags.resume_paths);
    if (!records.ok()) {
      std::fprintf(stderr, "error: cannot resume: %s\n",
                   records.status().to_string().c_str());
      std::exit(2);
    }
    state->completed = core::index_by_key(*records);
    std::printf("resume: %zu journaled points in %zu file(s)\n",
                state->completed.size(), flags.resume_paths.size());
  }
  const std::string& journal = flags.journal_path.empty() &&
                                       !flags.resume_paths.empty()
                                   ? flags.resume_paths.back()
                                   : flags.journal_path;
  if (!journal.empty()) {
    const auto st = state->journal.open(journal);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
      std::exit(2);
    }
  }
}

namespace {

void sleep_point(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The in-process grid behind run_grid_resilient_sharded.
std::vector<core::JournalRecord> run_grid_resilient(
    std::size_t n, int threads, const std::string& key_prefix,
    ResilientState* state, int point_sleep_ms, const PointFn& fn) {
  std::vector<core::JournalRecord> out(n);
  const auto statuses = core::run_indexed_contained(
      n,
      [&](std::size_t i) -> Status {
        const std::string key = key_prefix + "/" + std::to_string(i);
        const auto it = state->completed.find(key);
        if (it != state->completed.end()) {
          out[i] = it->second;
          return Status(out[i].code, out[i].message);
        }
        sleep_point(point_sleep_ms);
        core::JournalRecord rec = fn(i);  // an escape leaves out[i] keyless
        rec.key = key;
        FLEXNETS_CHECK(state->journal.append(rec).ok(),
                       "journal append failed");
        out[i] = std::move(rec);
        return {};
      },
      threads);
  // A point whose computation escaped never journaled: record its captured
  // status so a resume does not retry a known-poisoned point forever.
  for (std::size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok() && out[i].key.empty()) {
      out[i].key = key_prefix + "/" + std::to_string(i);
      out[i].code = statuses[i].code();
      out[i].message = statuses[i].message();
      (void)state->journal.append(out[i]);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> worker_args(int argc, char** argv,
                                     const std::string& key_prefix) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workers" || a == "--max-attempts" || a == "--journal" ||
        a == "--resume") {
      ++i;  // the flag's value is coordinator-only too
      continue;
    }
    if (a.rfind("--workers=", 0) == 0 || a.rfind("--max-attempts=", 0) == 0 ||
        a.rfind("--journal=", 0) == 0 || a.rfind("--resume=", 0) == 0 ||
        a.rfind("--sweep-worker=", 0) == 0) {
      continue;
    }
    out.push_back(a);
  }
  out.push_back("--sweep-worker=" + key_prefix);
  return out;
}

namespace {

// Shared coordinator-side launch: spawn workers off this binary, run the
// grid to completion, die loudly if orchestration itself broke (per-point
// failures are structured records, not orchestration errors).
std::vector<core::JournalRecord> run_coordinator(
    int argc, char** argv, std::size_t n, const std::string& key_prefix,
    ResilientState* state, const GridFlags& flags) {
  sweep::ShardedOptions sopts;
  sopts.exec_path = "/proc/self/exe";
  sopts.args = worker_args(argc, argv, key_prefix);
  sopts.workers = flags.workers;
  sopts.max_attempts = flags.max_attempts;
  sopts.journal = &state->journal;
  sopts.completed = &state->completed;
  sopts.key_prefix = key_prefix;
  auto result = sweep::run_sharded(n, sopts);
  if (!result.ok()) {
    std::fprintf(stderr, "error: sharded sweep '%s' failed: %s\n",
                 key_prefix.c_str(), result.status().to_string().c_str());
    std::exit(2);
  }
  std::printf(
      "sharded %s: %d workers | %zu computed, %zu restored, %zu retries, "
      "%zu quarantined, %zu worker deaths\n",
      key_prefix.c_str(), flags.workers, result->computed, result->restored,
      result->retries, result->quarantined, result->worker_deaths);
  return std::move(result->records);
}

}  // namespace

std::vector<core::JournalRecord> run_grid_resilient_sharded(
    int argc, char** argv, std::size_t n, const std::string& key_prefix,
    ResilientState* state, const GridFlags& flags, const PointFn& fn) {
  if (!flags.worker_grid.empty()) {
    if (flags.worker_grid != key_prefix) {
      std::fprintf(stderr,
                   "error: --sweep-worker=%s: this run's grid is '%s'\n",
                   flags.worker_grid.c_str(), key_prefix.c_str());
      std::exit(2);
    }
    sweep::WorkerOptions wopts;
    wopts.num_points = n;
    wopts.key_prefix = key_prefix;
    wopts.fn = [&](std::size_t i) {
      sleep_point(flags.point_sleep_ms);
      core::JournalRecord rec = fn(i);
      rec.key = key_prefix + "/" + std::to_string(i);
      return rec;
    };
    std::exit(sweep::run_worker(wopts));
  }
  if (flags.workers > 1) {
    return run_coordinator(argc, argv, n, key_prefix, state, flags);
  }
  return run_grid_resilient(n, flags.threads, key_prefix, state,
                            flags.point_sleep_ms, fn);
}

std::uint64_t grid_digest(const std::vector<core::JournalRecord>& records) {
  Digest d;
  for (const auto& r : records) {
    for (const auto& [name, v] : r.values) {
      (void)name;
      d.mix_double(v);
    }
  }
  return d.value();
}

void print_digest_line(const std::string& label, std::uint64_t digest,
                       std::size_t points, std::size_t failed) {
  std::printf("digest %s: %016llx (%zu points, %zu failed)\n", label.c_str(),
              static_cast<unsigned long long>(digest), points, failed);
}

std::size_t count_failed(const std::vector<core::JournalRecord>& records) {
  std::size_t n = 0;
  for (const auto& r : records) n += r.ok() ? 0 : 1;
  return n;
}

std::string health_note(const core::PacketResult& r) {
  std::string s;
  if (r.fct.incomplete_flows > 0) {
    s += "incomplete=" + std::to_string(r.fct.incomplete_flows) + " ";
  }
  if (r.drops > 0) s += "drops=" + std::to_string(r.drops);
  return s.empty() ? "ok" : s;
}

core::PacketSimOptions default_packet_options(bool full) {
  core::PacketSimOptions opts;
  if (full) {
    // Paper section 6.4: statistics over flows starting in [0.5s, 1.5s).
    opts.window_begin = 500 * kMillisecond;
    opts.window_end = 1500 * kMillisecond;
    opts.arrival_tail = 500 * kMillisecond;
    opts.hard_stop = 120 * kSecond;
  } else {
    opts.window_begin = 20 * kMillisecond;
    opts.window_end = 50 * kMillisecond;
    opts.arrival_tail = 15 * kMillisecond;
    opts.hard_stop = 20 * kSecond;
  }
  return opts;
}

int active_server_count(const topo::Topology& t,
                        const workload::PairDistribution& pairs) {
  int n = 0;
  for (const auto r : pairs.active_racks()) n += t.servers_per_switch[r];
  return n;
}

core::PacketResult run_point(const Scenario& s,
                             const workload::PairDistribution& pairs,
                             const workload::FlowSizeDistribution& sizes,
                             double rate_per_active_server,
                             std::uint64_t seed, bool full) {
  core::PacketSimOptions opts = default_packet_options(full);
  opts.arrival_rate =
      rate_per_active_server * active_server_count(*s.topo, pairs);
  opts.net.routing.mode = s.mode;
  opts.net.server_link.rate = s.server_rate;
  opts.seed = seed;
  return core::run_packet_experiment(*s.topo, pairs, sizes, opts);
}

Section64 section64_topologies(bool full) {
  Section64 out;
  if (full) {
    out.fat_tree = topo::fat_tree(16);
    auto x = topo::xpander(11, 18, 5, /*seed=*/1);  // 216 sw, 1080 servers
    out.xpander = std::move(x.topo);
  } else {
    out.fat_tree = topo::fat_tree(8);
    auto x = topo::xpander(5, 9, 3, /*seed=*/1);  // 54 sw, 162 servers
    out.xpander = std::move(x.topo);
  }
  return out;
}

}  // namespace flexnets::bench
