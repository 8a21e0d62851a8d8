#include "util.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/digest.hpp"
#include "flow/throughput.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"
#include "topo/xpander.hpp"

namespace flexnets::bench {

void banner(const std::string& figure, const std::string& description) {
  std::printf("=== %s — %s ===\n", figure.c_str(), description.c_str());
  std::printf("scale: %s (set REPRO_FULL=1 for paper-scale parameters)\n\n",
              core::repro_full() ? "PAPER-SCALE" : "scaled-down default");
}

int parse_threads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      value = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else {
      continue;
    }
    const int n = std::atoi(value);
    if (n <= 0) {
      std::fprintf(stderr,
                   "error: --threads wants a positive integer, got '%s'\n",
                   value);
      std::exit(2);
    }
    return n;
  }
  return 0;  // auto: FLEXNETS_THREADS env, else hardware_concurrency
}

ResilientFlags parse_resilient_flags(int argc, char** argv) {
  ResilientFlags flags;
  const auto want_value = [&](int i, const char* name) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s wants a value\n", name);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--journal") == 0) {
      flags.journal_path = want_value(i, "--journal");
    } else if (std::strncmp(argv[i], "--journal=", 10) == 0) {
      flags.journal_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      flags.resume_paths.emplace_back(want_value(i, "--resume"));
    } else if (std::strncmp(argv[i], "--resume=", 9) == 0) {
      flags.resume_paths.emplace_back(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--point-sleep-ms") == 0 ||
               std::strncmp(argv[i], "--point-sleep-ms=", 17) == 0) {
      const char* value = argv[i][16] == '='
                              ? argv[i] + 17
                              : want_value(i, "--point-sleep-ms");
      flags.point_sleep_ms = std::atoi(value);
      if (flags.point_sleep_ms < 0) {
        std::fprintf(stderr, "error: --point-sleep-ms wants >= 0, got '%s'\n",
                     value);
        std::exit(2);
      }
    }
  }
  // Resuming continues the newest named file unless a different journal
  // was named.
  if (!flags.resume_paths.empty() && flags.journal_path.empty()) {
    flags.journal_path = flags.resume_paths.back();
  }
  return flags;
}

void init_resilient_state(const ResilientFlags& flags,
                          ResilientState* state) {
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
  if (!flags.journal_path.empty()) {
    const auto st = state->journal.open(flags.journal_path);
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

}  // namespace

std::vector<core::FluidPointRecord> sweep_with_flags(
    const topo::Topology& topo, core::FluidSweepOptions opts,
    const std::string& key_prefix, ResilientState* state,
    int point_sleep_ms) {
  if (point_sleep_ms > 0) {
    opts.point_hook = [point_sleep_ms](std::size_t) {
      sleep_point(point_sleep_ms);
    };
  }
  core::ResilientSweepOptions ropts;
  ropts.sweep = std::move(opts);
  ropts.journal = &state->journal;
  ropts.completed = &state->completed;
  ropts.key_prefix = key_prefix;
  return core::fluid_sweep_resilient(topo, ropts);
}

std::vector<core::JournalRecord> run_grid_resilient(
    std::size_t n, int threads, const std::string& key_prefix,
    ResilientState* state, int point_sleep_ms,
    const std::function<std::vector<std::pair<std::string, double>>(
        std::size_t)>& fn) {
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
        core::JournalRecord rec;
        rec.key = key;
        rec.values = fn(i);  // an escape here leaves out[i] keyless
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

ShardFlags parse_shard_flags(int argc, char** argv) {
  ShardFlags flags;
  const auto want_int = [](const char* value, const char* name) -> int {
    const int n = std::atoi(value);
    if (n <= 0) {
      std::fprintf(stderr, "error: %s wants a positive integer, got '%s'\n",
                   name, value);
      std::exit(2);
    }
    return n;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      flags.workers = want_int(argv[i + 1], "--workers");
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      flags.workers = want_int(argv[i] + 10, "--workers");
    } else if (std::strcmp(argv[i], "--max-attempts") == 0 && i + 1 < argc) {
      flags.max_attempts = want_int(argv[i + 1], "--max-attempts");
    } else if (std::strncmp(argv[i], "--max-attempts=", 15) == 0) {
      flags.max_attempts = want_int(argv[i] + 15, "--max-attempts");
    } else if (std::strncmp(argv[i], "--sweep-worker=", 15) == 0) {
      flags.worker_grid = argv[i] + 15;
    }
  }
  return flags;
}

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
    if (a == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;  // optional path
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
    ResilientState* state, const ShardFlags& sflags) {
  sweep::ShardedOptions sopts;
  sopts.exec_path = "/proc/self/exe";
  sopts.args = worker_args(argc, argv, key_prefix);
  sopts.workers = sflags.workers;
  sopts.max_attempts = sflags.max_attempts;
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
      key_prefix.c_str(), sflags.workers, result->computed, result->restored,
      result->retries, result->quarantined, result->worker_deaths);
  return std::move(result->records);
}

}  // namespace

std::vector<core::JournalRecord> run_grid_resilient_sharded(
    int argc, char** argv, std::size_t n, int threads,
    const std::string& key_prefix, ResilientState* state,
    const ResilientFlags& rflags, const ShardFlags& sflags,
    const std::function<std::vector<std::pair<std::string, double>>(
        std::size_t)>& fn) {
  if (!sflags.worker_grid.empty()) {
    if (sflags.worker_grid != key_prefix) {
      // A worker targeting another grid of this binary: placeholder
      // records keep control flow moving toward the target grid.
      std::vector<core::JournalRecord> out(n);
      for (std::size_t i = 0; i < n; ++i) {
        out[i].key = key_prefix + "/" + std::to_string(i);
      }
      return out;
    }
    sweep::WorkerOptions wopts;
    wopts.num_points = n;
    wopts.key_prefix = key_prefix;
    wopts.fn = [&](std::size_t i) {
      sleep_point(rflags.point_sleep_ms);
      core::JournalRecord rec;
      rec.key = key_prefix + "/" + std::to_string(i);
      rec.values = fn(i);
      return rec;
    };
    std::exit(sweep::run_worker(wopts));
  }
  if (sflags.workers > 1) {
    return run_coordinator(argc, argv, n, key_prefix, state, sflags);
  }
  return run_grid_resilient(n, threads, key_prefix, state,
                            rflags.point_sleep_ms, fn);
}

std::vector<core::FluidPointRecord> sweep_with_flags_sharded(
    int argc, char** argv, const topo::Topology& topo,
    core::FluidSweepOptions opts, const std::string& key_prefix,
    ResilientState* state, const ResilientFlags& rflags,
    const ShardFlags& sflags) {
  const std::size_t n = opts.fractions.size();
  if (!sflags.worker_grid.empty()) {
    if (sflags.worker_grid != key_prefix) {
      return std::vector<core::FluidPointRecord>(n);
    }
    const auto cache = flow::build_throughput_cache(topo);
    sweep::WorkerOptions wopts;
    wopts.num_points = n;
    wopts.key_prefix = key_prefix;
    wopts.fn = [&](std::size_t i) {
      sleep_point(rflags.point_sleep_ms);
      return core::to_journal_record(
          key_prefix, i, core::fluid_sweep_point(topo, cache, opts, i));
    };
    std::exit(sweep::run_worker(wopts));
  }
  if (sflags.workers > 1) {
    const auto records =
        run_coordinator(argc, argv, n, key_prefix, state, sflags);
    std::vector<core::FluidPointRecord> out;
    out.reserve(records.size());
    for (const auto& rec : records) {
      out.push_back(core::from_journal_record(rec));
    }
    return out;
  }
  return sweep_with_flags(topo, std::move(opts), key_prefix, state,
                          rflags.point_sleep_ms);
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

std::size_t count_failed(const std::vector<core::FluidPointRecord>& records) {
  std::size_t n = 0;
  for (const auto& r : records) n += r.status.ok() ? 0 : 1;
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
