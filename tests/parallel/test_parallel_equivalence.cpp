// The determinism headline invariant of the parallel sweep layer: same
// seed, any thread count, bit-identical results. fluid_sweep runs with
// threads in {1, 2, 8} over fat-tree, Xpander, and Jellyfish for every
// TmFamily, and each parallel run must match the serial (threads=1) path
// exactly — double bits and common/digest value alike. This suite carries
// the `parallel` ctest label and is the one the tsan preset gates on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/fluid_runner.hpp"
#include "core/parallel.hpp"
#include "flow/tm_generators.hpp"
#include "topo/fat_tree.hpp"
#include "topo/jellyfish.hpp"
#include "topo/xpander.hpp"

namespace flexnets::core {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// Bit-level equality: EXPECT_EQ on doubles would also pass for -0.0 vs
// 0.0; the contract here is stronger — the parallel path must produce the
// exact same words the serial path does.
void expect_bit_identical(const std::vector<FluidPoint>& serial,
                          const std::vector<FluidPoint>& parallel,
                          const std::string& what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(bits_of(serial[i].fraction), bits_of(parallel[i].fraction))
        << what << " point " << i << " fraction";
    EXPECT_EQ(bits_of(serial[i].throughput), bits_of(parallel[i].throughput))
        << what << " point " << i << " throughput";
    EXPECT_EQ(bits_of(serial[i].upper), bits_of(parallel[i].upper))
        << what << " point " << i << " upper";
  }
  EXPECT_EQ(fluid_sweep_digest(serial), fluid_sweep_digest(parallel)) << what;
}

struct Instance {
  std::string label;
  topo::Topology topo;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"fat-tree k=4", topo::fat_tree(4).topo});
  out.push_back({"xpander 12x3", topo::xpander(3, 4, 2, 1).topo});
  out.push_back({"jellyfish 16x4", topo::jellyfish(16, 4, 2, 1)});
  return out;
}

constexpr TmFamily kFamilies[] = {TmFamily::kLongestMatching,
                                  TmFamily::kRandomPermutation,
                                  TmFamily::kAllToAll};

const char* family_name(TmFamily f) {
  switch (f) {
    case TmFamily::kLongestMatching:
      return "longest-matching";
    case TmFamily::kRandomPermutation:
      return "permutation";
    case TmFamily::kAllToAll:
      return "a2a";
  }
  return "?";
}

TEST(ParallelEquivalence, FluidSweepBitIdenticalAcrossThreadCounts) {
  for (const auto& inst : instances()) {
    for (const TmFamily family : kFamilies) {
      FluidSweepOptions opts;
      opts.fractions = {0.3, 0.6, 1.0};
      opts.family = family;
      opts.eps = 0.15;
      opts.seed = 7;
      opts.threads = 1;  // strictly serial reference: no pool at all
      const auto serial = fluid_sweep(inst.topo, opts);
      ASSERT_EQ(serial.size(), opts.fractions.size());
      for (const int threads : {2, 8}) {
        opts.threads = threads;
        expect_bit_identical(serial, fluid_sweep(inst.topo, opts),
                             inst.label + " / " + family_name(family) +
                                 " / threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelEquivalence, RepeatedParallelRunsAreBitIdentical) {
  // Scheduling noise across *runs* (not just vs serial) must not leak in.
  const auto jf = topo::jellyfish(16, 4, 2, 1);
  FluidSweepOptions opts;
  opts.fractions = {0.4, 0.7, 1.0};
  opts.eps = 0.15;
  opts.seed = 11;
  opts.threads = 8;
  const auto a = fluid_sweep(jf, opts);
  const auto b = fluid_sweep(jf, opts);
  expect_bit_identical(a, b, "jellyfish repeat");
}

TEST(ParallelEquivalence, PointResultDependsOnIndexAndSeedOnly) {
  // The per-point sub-seed is hash(seed, index): point i's draw stream
  // cannot be perturbed by how many random numbers other points consume.
  // Changing a *preceding fraction's value* (which changes its rack count
  // and thus its draw count) must leave point 1 untouched.
  const auto jf = topo::jellyfish(16, 4, 2, 1);
  FluidSweepOptions opts;
  opts.eps = 0.15;
  opts.seed = 3;
  opts.threads = 1;
  opts.fractions = {0.2, 0.8};
  const auto a = fluid_sweep(jf, opts);
  opts.fractions = {0.9, 0.8};
  const auto b = fluid_sweep(jf, opts);
  EXPECT_EQ(bits_of(a[1].throughput), bits_of(b[1].throughput));
  // And the index really keys the stream: the documented derivation
  // hash(seed, index) hands different indices different rack subsets.
  const auto racks0 = flow::pick_active_racks(jf, 8, hash_words(3, 0));
  const auto racks1 = flow::pick_active_racks(jf, 8, hash_words(3, 1));
  EXPECT_NE(racks0, racks1);
}

TEST(ParallelEquivalence, AuditedSharedCacheHandoffMatchesSerial) {
  // FLEXNETS_AUDIT exercises the stale-handoff audit on the shared
  // read-only throughput cache from every worker concurrently; results
  // must still be bit-identical to the unaudited serial run.
  const auto xp = topo::xpander(3, 4, 2, 1).topo;
  FluidSweepOptions opts;
  opts.fractions = {0.5, 1.0};
  opts.eps = 0.15;
  opts.seed = 5;
  opts.threads = 1;
  const auto serial = fluid_sweep(xp, opts);
  AuditScope audit(true);
  opts.threads = 8;
  expect_bit_identical(serial, fluid_sweep(xp, opts), "audited xpander");
}

TEST(ParallelEquivalence, RunIndexedWritesEverySlotOnce) {
  constexpr std::size_t kN = 64;
  for (const int threads : {1, 2, 8}) {
    std::vector<int> hits(kN, 0);
    run_indexed(
        kN, [&](std::size_t i) { ++hits[i]; }, threads);
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i], 1) << "threads=" << threads << " slot " << i;
    }
  }
}

TEST(ParallelEquivalence, ResolveThreadsPrecedence) {
  EXPECT_EQ(resolve_threads(5), 5);  // explicit request wins
  EXPECT_GE(resolve_threads(0), 1);  // env / hardware fallback, never < 1
}

}  // namespace
}  // namespace flexnets::core
