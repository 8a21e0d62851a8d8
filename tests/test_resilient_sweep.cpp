// Resilient sweep layer: per-point fault containment
// (core/parallel run_indexed_contained), the durable journal integration
// in fluid_sweep_resilient, and the kill/resume digest contract —
// a journal truncated by a mid-run SIGKILL, resumed, must reproduce the
// uninterrupted sweep's digest bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "core/fluid_runner.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "topo/fat_tree.hpp"
#include "topo/io.hpp"
#include "topo/xpander.hpp"

namespace flexnets::core {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// run_indexed_contained

TEST(RunIndexedContained, CapturesEveryFailureModeAndRunsEveryIndex) {
  std::atomic<int> ran{0};
  const auto statuses = run_indexed_contained(
      5,
      [&](std::size_t i) -> Status {
        ran.fetch_add(1, std::memory_order_relaxed);
        switch (i) {
          case 1:
            return invalid_input_error("bad point ", i);
          case 2:
            throw_status(partitioned_error("no route at point ", i));
          case 3:
            FLEXNETS_CHECK(false, "poisoned invariant at point ", i);
            return Status();
          case 4:
            throw std::runtime_error("stray exception");
          default:
            return Status();
        }
      },
      2);

  EXPECT_EQ(ran.load(), 5);
  ASSERT_EQ(statuses.size(), 5u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidInput);
  EXPECT_EQ(statuses[2].code(), StatusCode::kPartitioned);
  EXPECT_NE(statuses[2].message().find("no route at point 2"),
            std::string::npos);
  EXPECT_EQ(statuses[3].code(), StatusCode::kInternal);
  EXPECT_NE(statuses[3].message().find("poisoned invariant"),
            std::string::npos);
  EXPECT_EQ(statuses[4].code(), StatusCode::kInternal);
  EXPECT_NE(statuses[4].message().find("stray exception"), std::string::npos);
}

TEST(RunIndexedContained, IsDeterministicAcrossThreadCounts) {
  const auto run = [](int threads) {
    return run_indexed_contained(
        8,
        [](std::size_t i) -> Status {
          if (i % 3 == 1) return invalid_input_error("point ", i);
          return Status();
        },
        threads);
  };
  EXPECT_EQ(run(1), run(4));
}

// ---------------------------------------------------------------------------
// fluid_sweep_resilient

FluidSweepOptions small_sweep() {
  FluidSweepOptions opts;
  opts.fractions = {0.25, 0.5, 0.75, 1.0};
  opts.seed = 7;
  opts.threads = 2;
  return opts;
}

TEST(ResilientSweep, MatchesThePlainSweepWhenEveryPointSucceeds) {
  const auto ft = topo::fat_tree(4);
  const auto opts = small_sweep();

  const auto plain = fluid_sweep(ft.topo, opts);

  ResilientSweepOptions ropts;
  ropts.sweep = opts;
  const auto records = fluid_sweep_resilient(ft.topo, ropts);

  ASSERT_EQ(records.size(), plain.size());
  for (const auto& r : records) EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  EXPECT_EQ(fluid_sweep_digest(records), fluid_sweep_digest(plain));
}

TEST(ResilientSweep, JournalRecordRoundTripsExactly) {
  FluidPointRecord rec;
  rec.point.fraction = 0.1;  // not exactly representable
  rec.point.throughput = 1.0 / 3.0;
  rec.point.upper = 0.7;  // not exactly representable either
  rec.status = budget_exhausted_error("stopped after 3 phases");

  const auto j = to_journal_record("fig5a/jellyfish", 12, rec);
  EXPECT_EQ(j.key, "fig5a/jellyfish/12");
  const auto parsed = parse_json_line(to_json_line(j));
  ASSERT_TRUE(parsed.ok());
  const auto back = from_journal_record(*parsed);
  EXPECT_EQ(back.point.fraction, rec.point.fraction);
  EXPECT_EQ(back.point.throughput, rec.point.throughput);
  EXPECT_EQ(back.point.upper, rec.point.upper);
  EXPECT_EQ(back.status, rec.status);
}

TEST(ResilientSweep, KillMidSweepThenResumeReproducesTheDigest) {
  const auto x = topo::xpander(3, 4, 2, 1);
  const auto opts = small_sweep();

  // The uninterrupted run, journaled in full.
  const std::string full_path = temp_path("resume_full.jsonl");
  std::remove(full_path.c_str());
  std::uint64_t full_digest = 0;
  {
    Journal journal;
    ASSERT_TRUE(journal.open(full_path).ok());
    ResilientSweepOptions ropts;
    ropts.sweep = opts;
    ropts.journal = &journal;
    ropts.key_prefix = "fig/x";
    full_digest = fluid_sweep_digest(fluid_sweep_resilient(x.topo, ropts));
  }

  // Simulate a SIGKILL after two points: keep the first two journal lines
  // and half of a third (killed mid-append, no trailing newline).
  std::ifstream in(full_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), opts.fractions.size());
  const std::string killed_path = temp_path("resume_killed.jsonl");
  {
    std::ofstream out(killed_path, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n";
    out << lines[2].substr(0, lines[2].size() / 2);  // torn final append
  }

  // Resume: load survivors, skip them, compute the rest into the same
  // journal file.
  const auto survivors = load_journal(killed_path);
  ASSERT_TRUE(survivors.ok());
  EXPECT_EQ(survivors->size(), 2u);  // torn line dropped
  const auto completed = index_by_key(*survivors);

  Journal journal;
  ASSERT_TRUE(journal.open(killed_path).ok());
  ResilientSweepOptions ropts;
  ropts.sweep = opts;
  ropts.journal = &journal;
  ropts.completed = &completed;
  ropts.key_prefix = "fig/x";
  const auto resumed = fluid_sweep_resilient(x.topo, ropts);
  journal.close();

  EXPECT_EQ(fluid_sweep_digest(resumed), full_digest);

  // The resumed journal now covers every point (the torn line's point and
  // the never-run ones were appended after the torn tail).
  const auto final_records = load_journal(killed_path);
  ASSERT_TRUE(final_records.ok());
  EXPECT_EQ(index_by_key(*final_records).size(), opts.fractions.size());
}

TEST(ResilientSweep, ResumeReusesJournaledBitsInsteadOfRecomputing) {
  const auto ft = topo::fat_tree(4);
  const auto opts = small_sweep();

  // A journal whose point 1 carries a sentinel value no solve would
  // produce: if the resumed sweep reports it, the point was restored from
  // the journal, not recomputed.
  FluidPointRecord sentinel;
  sentinel.point.fraction = opts.fractions[1];
  sentinel.point.throughput = 123.456;
  std::map<std::string, JournalRecord> completed;
  completed["sweep/1"] = to_journal_record("sweep", 1, sentinel);

  ResilientSweepOptions ropts;
  ropts.sweep = opts;
  ropts.completed = &completed;
  const auto records = fluid_sweep_resilient(ft.topo, ropts);
  ASSERT_EQ(records.size(), opts.fractions.size());
  EXPECT_EQ(records[1].point.throughput, 123.456);
  EXPECT_TRUE(records[1].status.ok());
  EXPECT_NE(records[0].point.throughput, 0.0);
}

// A journal written before points were certified has ok lines without
// "upper". Resuming one must fail that point, not read its upper bound
// as 0 and pass its uncertified lambda off as part of a certified sweep.
TEST(ResilientSweep, ResumedOkLineWithoutUpperIsInvalidInput) {
  const auto ft = topo::fat_tree(4);
  const auto opts = small_sweep();

  const std::string path = temp_path("pre_certificate.jsonl");
  std::remove(path.c_str());
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path).ok());
    ResilientSweepOptions ropts;
    ropts.sweep = opts;
    ropts.journal = &journal;
    (void)fluid_sweep_resilient(ft.topo, ropts);
  }
  // Rewrite point 1's line without its "upper" value.
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), opts.fractions.size());
  for (auto& line : lines) {
    auto rec = parse_json_line(line);
    ASSERT_TRUE(rec.ok()) << rec.status().to_string();
    if (rec->key != "sweep/1") continue;
    ASSERT_TRUE(rec->ok());
    std::erase_if(rec->values,
                  [](const auto& v) { return v.first == "upper"; });
    line = to_json_line(*rec);
  }
  {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& line : lines) out << line << "\n";
  }

  const auto loaded = load_journal(path);
  ASSERT_TRUE(loaded.ok());
  const auto completed = index_by_key(*loaded);
  ResilientSweepOptions ropts;
  ropts.sweep = opts;
  ropts.completed = &completed;
  const auto records = fluid_sweep_resilient(ft.topo, ropts);
  std::remove(path.c_str());

  ASSERT_EQ(records.size(), opts.fractions.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(records[i].status.ok()) << i << ": "
                                        << records[i].status.to_string();
    EXPECT_GE(records[i].point.upper, records[i].point.throughput) << i;
  }
  const auto& bad = records[1];
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(bad.status.message().find("sweep/1"), std::string::npos)
      << bad.status.message();
  EXPECT_NE(bad.status.message().find("upper"), std::string::npos)
      << bad.status.message();
  EXPECT_EQ(bad.point.fraction, opts.fractions[1]);
  EXPECT_EQ(bad.point.throughput, 0.0);
  EXPECT_EQ(bad.point.upper, 0.0);
}

// The acceptance scenario: a sweep over topology files where one file is
// corrupt completes every healthy point and journals exactly one
// structured kInvalidInput record for the poisoned one.
TEST(ResilientSweep, PoisonedGridPointJournalsOneInvalidInputRecord) {
  const auto good_a = topo::fat_tree(4).topo;
  const auto good_b = topo::xpander(3, 4, 2, 1).topo;
  const std::string path_a = temp_path("grid_a.topo");
  const std::string path_b = temp_path("grid_b.topo");
  ASSERT_TRUE(topo::save_topology(path_a, good_a).ok());
  ASSERT_TRUE(topo::save_topology(path_b, good_b).ok());
  const std::vector<std::string> grid = {
      path_a, std::string(FLEXNETS_TEST_DATA_DIR) + "/corrupt_inputs/truncated.topo",
      path_b};

  const std::string journal_path = temp_path("grid_journal.jsonl");
  std::remove(journal_path.c_str());
  Journal journal;
  ASSERT_TRUE(journal.open(journal_path).ok());

  auto opts = small_sweep();
  opts.fractions = {0.5, 1.0};
  const auto statuses = run_indexed_contained(
      grid.size(),
      [&](std::size_t i) -> Status {
        const auto loaded = topo::load_topology(grid[i]);
        JournalRecord rec;
        rec.key = "grid/" + std::to_string(i);
        if (!loaded.ok()) {
          rec.code = loaded.status().code();
          rec.message = loaded.status().message();
          FLEXNETS_CHECK(journal.append(rec).ok(), "journal append failed");
          return loaded.status();
        }
        const auto points = fluid_sweep(*loaded, opts);
        rec.values = {{"digest",
                       static_cast<double>(fluid_sweep_digest(points) >> 11)}};
        FLEXNETS_CHECK(journal.append(rec).ok(), "journal append failed");
        return Status();
      },
      2);
  journal.close();

  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(statuses[1].code(), StatusCode::kInvalidInput);
  EXPECT_TRUE(statuses[2].ok());

  const auto records = load_journal(journal_path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  int invalid = 0;
  for (const auto& r : *records) {
    if (r.code == StatusCode::kInvalidInput) {
      ++invalid;
      EXPECT_NE(r.message.find("truncated.topo"), std::string::npos);
      EXPECT_NE(r.message.find("line"), std::string::npos);
    }
  }
  EXPECT_EQ(invalid, 1);
}

}  // namespace
}  // namespace flexnets::core
