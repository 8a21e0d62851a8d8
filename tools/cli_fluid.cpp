#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli_commands.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "flow/throughput.hpp"
#include "sweep/coordinator.hpp"
#include "sweep/worker.hpp"

namespace flexnets::cli {

int cmd_fluid(const Args& args) {
  const auto t = build_topology(args);
  if (!t) return 1;

  core::FluidSweepOptions opts;
  opts.eps = args.get_double("eps", 0.07);
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (opts.eps <= 0.0 || opts.eps > 0.5) {
    std::fprintf(stderr, "error: --eps must be in (0, 0.5]\n");
    return 1;
  }
  // 0 = auto (FLEXNETS_THREADS env, else hardware concurrency). Same-seed
  // results are bit-identical for every thread count.
  opts.threads = static_cast<int>(args.get_int("threads", 0));
  if (opts.threads < 0) {
    std::fprintf(stderr, "error: --threads must be >= 0\n");
    return 1;
  }

  if (args.has("fractions")) {
    opts.fractions.clear();
    std::istringstream in(args.get("fractions", ""));
    std::string tok;
    while (std::getline(in, tok, ',')) {
      const double x = std::strtod(tok.c_str(), nullptr);
      if (x <= 0.0 || x > 1.0) {
        std::fprintf(stderr, "error: fraction '%s' not in (0, 1]\n",
                     tok.c_str());
        return 1;
      }
      opts.fractions.push_back(x);
    }
    if (opts.fractions.empty()) {
      std::fprintf(stderr, "error: --fractions is empty\n");
      return 1;
    }
  } else {
    opts.fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  }

  // Cooperative GK budget: stop after N completed phases, keeping the
  // feasible partial lambda (status column shows budget-exhausted).
  opts.limits.max_phases = static_cast<int>(args.get_int("max-phases", 0));
  if (opts.limits.max_phases < 0) {
    std::fprintf(stderr, "error: --max-phases must be >= 0\n");
    return 1;
  }

  const auto tm = args.get("tm", "longest-matching");
  if (tm == "longest-matching") {
    opts.family = core::TmFamily::kLongestMatching;
  } else if (tm == "permutation") {
    opts.family = core::TmFamily::kRandomPermutation;
  } else if (tm == "a2a") {
    opts.family = core::TmFamily::kAllToAll;
  } else {
    std::fprintf(stderr, "error: unknown --tm '%s'\n", tm.c_str());
    return 1;
  }

  // Sharding (src/sweep): --workers N runs the sweep across N worker
  // subprocesses; --sweep-worker=fluid (internal) is this binary re-exec'ed
  // as one of those workers, serving leases over fds 3/4 until shutdown.
  const int workers = static_cast<int>(args.get_int("workers", 0));
  const int max_attempts = static_cast<int>(args.get_int("max-attempts", 3));
  if (workers < 0 || max_attempts < 1) {
    std::fprintf(stderr,
                 "error: --workers wants >= 0 and --max-attempts >= 1\n");
    return 1;
  }
  const auto worker_grid = args.get("sweep-worker", "");
  if (!worker_grid.empty()) {
    if (worker_grid != "fluid") {
      std::fprintf(stderr, "error: unknown --sweep-worker grid '%s'\n",
                   worker_grid.c_str());
      return 2;
    }
    const auto cache = flow::build_throughput_cache(*t);
    sweep::WorkerOptions wopts;
    wopts.num_points = opts.fractions.size();
    wopts.key_prefix = "fluid";
    wopts.fn = [&](std::size_t i) {
      return core::to_journal_record(
          "fluid", i, core::fluid_sweep_point(*t, cache, opts, i));
    };
    return sweep::run_worker(wopts);
  }

  // --journal <path>: append each finished point durably; --resume <path>:
  // skip points already journaled there (and keep appending to it).
  core::Journal journal;
  std::map<std::string, core::JournalRecord> completed;
  const auto resume_path = args.get("resume", "");
  auto journal_path = args.get("journal", "");
  if (!resume_path.empty()) {
    const auto records = core::load_journal(resume_path);
    if (!records.ok()) {
      std::fprintf(stderr, "error: cannot resume: %s\n",
                   records.status().to_string().c_str());
      return 1;
    }
    completed = core::index_by_key(*records);
    std::printf("resume: %zu journaled points in %s\n", completed.size(),
                resume_path.c_str());
    if (journal_path.empty()) journal_path = resume_path;
  }
  if (!journal_path.empty()) {
    const auto st = journal.open(journal_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
      return 1;
    }
  }

  std::vector<core::FluidPointRecord> records;
  if (workers > 1) {
    sweep::ShardedOptions sopts;
    sopts.exec_path = "/proc/self/exe";
    sopts.args.push_back("fluid");
    for (const auto& [k, v] : args.items()) {
      if (k == "workers" || k == "max-attempts" || k == "journal" ||
          k == "resume" || k == "sweep-worker") {
        continue;  // coordinator-only flags must not reach the worker
      }
      sopts.args.push_back(v.empty() ? "--" + k : "--" + k + "=" + v);
    }
    sopts.args.push_back("--sweep-worker=fluid");
    sopts.workers = workers;
    sopts.max_attempts = max_attempts;
    sopts.journal = &journal;
    sopts.completed = &completed;
    sopts.key_prefix = "fluid";
    auto sharded = sweep::run_sharded(opts.fractions.size(), sopts);
    if (!sharded.ok()) {
      std::fprintf(stderr, "error: sharded sweep failed: %s\n",
                   sharded.status().to_string().c_str());
      return 1;
    }
    std::printf(
        "sharded fluid: %d workers | %zu computed, %zu restored, %zu "
        "retries, %zu quarantined, %zu worker deaths\n",
        workers, sharded->computed, sharded->restored, sharded->retries,
        sharded->quarantined, sharded->worker_deaths);
    records.reserve(sharded->records.size());
    for (const auto& rec : sharded->records) {
      records.push_back(core::from_journal_record(rec));
    }
  } else {
    core::ResilientSweepOptions ropts;
    ropts.sweep = opts;
    ropts.journal = &journal;
    ropts.completed = &completed;
    ropts.key_prefix = "fluid";
    records = core::fluid_sweep_resilient(*t, ropts);
  }

  std::printf("topology: %s | TM: %s | eps: %.3f\n", t->name.c_str(),
              tm.c_str(), opts.eps);
  std::printf("%-12s %-22s %-8s %s\n", "fraction", "per_server_throughput",
              "upper", "status");
  std::size_t failed = 0;
  for (const auto& r : records) {
    std::printf("%-12.3f %-22.4f %-8.4f %s\n", r.point.fraction,
                r.point.throughput, r.point.upper,
                r.status.ok() ? "ok" : r.status.to_string().c_str());
    if (!r.status.ok() &&
        r.status.code() != StatusCode::kBudgetExhausted) {
      ++failed;
    }
  }
  std::printf("digest fluid: %016llx (%zu points, %zu failed)\n",
              static_cast<unsigned long long>(core::fluid_sweep_digest(records)),
              records.size(), failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace flexnets::cli
