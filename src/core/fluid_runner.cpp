#include "core/fluid_runner.hpp"

#include <algorithm>
#include <cmath>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "flow/tm_generators.hpp"

namespace flexnets::core {

namespace {

// One grid point, shared by the plain and resilient sweeps. Sub-seed from
// (seed, index) only: a point's draw stream does not depend on which
// fractions precede it or on scheduling -- this is also what makes
// journal-resume bit-exact.
FluidPointRecord compute_point(const topo::Topology& topo,
                               const flow::ThroughputCache& cache,
                               const FluidSweepOptions& opts,
                               std::size_t num_tors, std::size_t i) {
  if (opts.point_hook) opts.point_hook(i);
  const double x = opts.fractions[i];
  const std::uint64_t sub_seed = hash_words(opts.seed, i);
  const int count = std::clamp<int>(
      static_cast<int>(std::llround(x * static_cast<double>(num_tors))), 2,
      static_cast<int>(num_tors));
  const auto active = flow::pick_active_racks(topo, count, sub_seed);

  flow::TrafficMatrix tm;
  switch (opts.family) {
    case TmFamily::kLongestMatching:
      tm = flow::longest_matching_tm(topo, active);
      break;
    case TmFamily::kRandomPermutation:
      tm = flow::random_permutation_tm(topo, active, sub_seed);
      break;
    case TmFamily::kAllToAll:
      tm = flow::all_to_all_tm(topo, active);
      break;
  }

  flow::ThroughputOptions topts;
  topts.eps = opts.eps;
  topts.limits = opts.limits;
  const auto r = flow::per_server_throughput_budgeted(topo, tm, topts, cache);

  FluidPointRecord rec;
  rec.point.fraction = x;
  rec.point.throughput = r.lambda;  // feasible even when budgeted
  rec.point.upper = r.upper;
  rec.status = r.status;
  return rec;
}

}  // namespace

FluidPointRecord fluid_sweep_point(const topo::Topology& topo,
                                   const flow::ThroughputCache& cache,
                                   const FluidSweepOptions& opts,
                                   std::size_t index) {
  return compute_point(topo, cache, opts, topo.tors().size(), index);
}

std::vector<FluidPoint> fluid_sweep(const topo::Topology& topo,
                                    const FluidSweepOptions& opts) {
  const auto num_tors = topo.tors().size();
  // Shared read-only across all points; each point copies the base edge
  // list and appends its own hose nodes (audited under FLEXNETS_AUDIT).
  const auto cache = flow::build_throughput_cache(topo);

  std::vector<FluidPoint> out(opts.fractions.size());
  run_indexed(
      opts.fractions.size(),
      [&](std::size_t i) {
        out[i] = compute_point(topo, cache, opts, num_tors, i).point;
      },
      opts.threads);
  return out;
}

std::vector<FluidPointRecord> fluid_sweep_resilient(
    const topo::Topology& topo, const ResilientSweepOptions& opts) {
  const auto& sweep = opts.sweep;
  const auto num_tors = topo.tors().size();
  const auto cache = flow::build_throughput_cache(topo);

  std::vector<FluidPointRecord> out(sweep.fractions.size());
  const auto statuses = run_indexed_contained(
      sweep.fractions.size(),
      [&](std::size_t i) -> Status {
        if (opts.completed != nullptr) {
          const auto it =
              opts.completed->find(opts.key_prefix + "/" + std::to_string(i));
          if (it != opts.completed->end()) {
            // Journaled on a previous run: reuse the exact bits, skip the
            // solve, and do not re-journal.
            out[i] = from_journal_record(it->second);
            return out[i].status;
          }
        }
        out[i] = compute_point(topo, cache, sweep, num_tors, i);
        if (opts.journal != nullptr) {
          const auto jst =
              opts.journal->append(to_journal_record(opts.key_prefix, i,
                                                     out[i]));
          // A dead journal breaks the resume guarantee; surface it on the
          // point rather than pretending the record is durable.
          if (!jst.ok() && out[i].status.ok()) out[i].status = jst;
        }
        return out[i].status;
      },
      sweep.threads);

  // Points whose computation *escaped* (exception / check failure) never
  // filled their slot: give them their fraction, zero bounds, and
  // the captured status, and journal the failure so a resume does not
  // retry a known-poisoned point forever.
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!statuses[i].ok() && statuses[i] != out[i].status) {
      out[i].point = {sweep.fractions[i], 0.0, 0.0};
      out[i].status = statuses[i];
      if (opts.journal != nullptr) {
        (void)opts.journal->append(
            to_journal_record(opts.key_prefix, i, out[i]));
      }
    }
  }
  return out;
}

std::uint64_t fluid_sweep_digest(const std::vector<FluidPoint>& points) {
  Digest d;
  for (const auto& p : points) {
    d.mix_double(p.fraction);
    d.mix_double(p.throughput);
  }
  return d.value();
}

std::uint64_t fluid_sweep_digest(
    const std::vector<FluidPointRecord>& records) {
  Digest d;
  for (const auto& r : records) {
    d.mix_double(r.point.fraction);
    d.mix_double(r.point.throughput);
  }
  return d.value();
}

JournalRecord to_journal_record(const std::string& key_prefix,
                                std::size_t index,
                                const FluidPointRecord& rec) {
  JournalRecord j;
  j.key = key_prefix + "/" + std::to_string(index);
  j.code = rec.status.code();
  j.message = rec.status.message();
  j.values = {{"fraction", rec.point.fraction},
              {"throughput", rec.point.throughput},
              {"upper", rec.point.upper}};
  return j;
}

FluidPointRecord from_journal_record(const JournalRecord& rec) {
  FluidPointRecord r;
  r.point.fraction = rec.value("fraction");
  const bool has_upper =
      std::any_of(rec.values.begin(), rec.values.end(),
                  [](const auto& v) { return v.first == "upper"; });
  if (rec.ok() && !has_upper) {
    // Written before the solver certified its points: its throughput is
    // an uncertified lambda, and value() would read the missing bound as
    // 0. Fail the point rather than mix it into a certified sweep.
    r.status = invalid_input_error("journal record ", rec.key,
                                   ": ok point without an 'upper' value");
    return r;
  }
  r.point.throughput = rec.value("throughput");
  r.point.upper = rec.value("upper");
  r.status = Status(rec.code, rec.message);
  return r;
}

}  // namespace flexnets::core
