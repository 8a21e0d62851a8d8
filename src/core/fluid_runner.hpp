// Fluid-flow sweeps for the paper's section 5 figures: per-server
// throughput as the fraction of racks with traffic demand varies.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/journal.hpp"
#include "flow/throughput.hpp"
#include "topo/topology.hpp"

namespace flexnets::core {

enum class TmFamily {
  kLongestMatching,  // the paper's default hard TM for static networks
  kRandomPermutation,
  kAllToAll,
};

struct FluidPoint {
  double fraction = 0.0;    // of racks (and thus servers) with demand
  double throughput = 0.0;  // per-server, fraction of line rate (feasible)
  double upper = 0.0;       // the solver's proven upper bound on the optimum
};

struct FluidSweepOptions {
  std::vector<double> fractions = {0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9, 1.0};
  TmFamily family = TmFamily::kLongestMatching;
  double eps = 0.1;  // GK approximation parameter
  // Per-point GK budget / cancellation (flow/mcf.hpp). A budgeted point
  // still yields its feasible partial lambda; the resilient sweep records
  // the kBudgetExhausted status alongside it.
  flow::McfLimits limits;
  std::uint64_t seed = 1;
  // Invoked (when set) at the start of every *computed* point — never for
  // points restored from a journal. The fig benches hang a sleep here
  // (wall clock is lint-banned in src/, allowed in bench/) so the CI
  // kill-mid-sweep test can reliably land its SIGKILL inside the grid.
  std::function<void(std::size_t)> point_hook;
  // Worker threads for the fraction points (core::resolve_threads
  // semantics: 0 = FLEXNETS_THREADS env, else hardware_concurrency).
  // Results are bit-identical for every value: each point draws from a
  // sub-seed derived from (seed, point index) alone, never from a stream
  // another point advanced (tests/parallel/test_parallel_equivalence.cpp).
  int threads = 0;
};

// For each requested fraction x: activate x of the ToRs (random subset),
// build the TM, and evaluate per-server throughput. Points are evaluated
// concurrently on opts.threads workers; the returned vector is always in
// opts.fractions order.
std::vector<FluidPoint> fluid_sweep(const topo::Topology& topo,
                                    const FluidSweepOptions& opts);

// Order-sensitive digest of a sweep's (fraction, throughput) pairs (exact
// double bits), for same-seed determinism comparisons across thread counts
// and runs. `upper` is left out, so the digest names the reported values.
std::uint64_t fluid_sweep_digest(const std::vector<FluidPoint>& points);

// ---------------------------------------------------------------------------
// Resilient sweep: containment + durable journal + resume.

// One grid point's outcome. `status` is kOk for a clean solve,
// kBudgetExhausted/kNonConverged for a budgeted partial (point still
// carries the feasible lambda), or the captured failure of a poisoned
// point (point.throughput stays 0).
struct FluidPointRecord {
  FluidPoint point;
  Status status;
};

// One grid point of a sweep, exactly as fluid_sweep computes it: the
// point's sub-seed is hash_words(opts.seed, index), so any executor —
// serial loop, thread pool, or a sweep-orchestrator worker process — that
// evaluates index i gets bit-identical results. `cache` is the shared
// read-only throughput cache from flow::build_throughput_cache(topo).
FluidPointRecord fluid_sweep_point(const topo::Topology& topo,
                                   const flow::ThroughputCache& cache,
                                   const FluidSweepOptions& opts,
                                   std::size_t index);

struct ResilientSweepOptions {
  FluidSweepOptions sweep;
  // Journal integration (both optional, typically used together by the
  // --journal/--resume bench flags):
  //  - journal: every finished point is appended durably (flush+fsync)
  //    the moment it completes. Several sweeps may share one Journal (its
  //    append is mutex-guarded) as long as their key_prefixes differ.
  //  - completed: points whose key has an entry are not recomputed; the
  //    journaled values (exact bits) are reused. Sub-seeds derive from
  //    (seed, index) alone, so skip-and-reuse reproduces the
  //    uninterrupted sweep bit for bit.
  Journal* journal = nullptr;
  const std::map<std::string, JournalRecord>* completed = nullptr;
  // Journal key of point i is "<key_prefix>/<i>".
  std::string key_prefix = "sweep";
};

// fluid_sweep with per-point fault containment: a point that fails --
// malformed derived input, solver safety cap, escaped FLEXNETS_CHECK --
// journals and records a structured status while every other point
// completes. Runs under the throwing check policy (see
// run_indexed_contained's note); the returned vector is always in
// opts.sweep.fractions order.
std::vector<FluidPointRecord> fluid_sweep_resilient(
    const topo::Topology& topo, const ResilientSweepOptions& opts);

// Digest over (fraction, throughput) of every record, in order -- equals
// fluid_sweep_digest(fluid_sweep(...)) when every point is ok, whether or
// not some points were restored from a journal.
std::uint64_t fluid_sweep_digest(const std::vector<FluidPointRecord>& records);

// The journal form of one record (key "<key_prefix>/<index>", values
// "fraction", "throughput" and "upper"), and its inverse. Exposed for the
// bench drivers and the kill/resume tests.
JournalRecord to_journal_record(const std::string& key_prefix,
                                std::size_t index,
                                const FluidPointRecord& rec);
FluidPointRecord from_journal_record(const JournalRecord& rec);

}  // namespace flexnets::core
