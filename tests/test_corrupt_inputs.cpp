// Corrupt-input corpus (tests/corrupt_inputs/): every file is malformed in
// a distinct way, and loading any of them must produce a structured
// kInvalidInput naming the offending line -- never a crash or a CHECK
// abort. This is the input-boundary half of the resilience model; the
// sweep-level half (a poisoned grid point doesn't take down its
// neighbours) lives in test_resilient_sweep.cpp.
#include <gtest/gtest.h>

#include <string>

#include "common/status.hpp"
#include "fault/fault_plan.hpp"
#include "topo/io.hpp"
#include "topo/xpander.hpp"

namespace flexnets::topo {
namespace {

std::string corpus(const std::string& file) {
  return std::string(FLEXNETS_TEST_DATA_DIR) + "/corrupt_inputs/" + file;
}

struct CorpusCase {
  const char* file;
  const char* expect_line;      // "line N" of the offending line
  const char* expect_fragment;  // what the diagnostic must mention
};

// Without a PrintTo, gtest prints a case as its raw bytes: string pointers
// that move from run to run. CTest's test discovery appends that printout
// to each test's name, so print the corpus file instead. Same below.
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.file; }

class CorruptInputs : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(CorruptInputs, YieldsInvalidInputNamingTheLine) {
  const auto& c = GetParam();
  const auto t = load_topology(corpus(c.file));
  ASSERT_FALSE(t.ok()) << c.file << " unexpectedly parsed";
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidInput) << c.file;
  const auto& msg = t.status().message();
  EXPECT_NE(msg.find(c.expect_line), std::string::npos)
      << c.file << ": " << msg;
  EXPECT_NE(msg.find(c.expect_fragment), std::string::npos)
      << c.file << ": " << msg;
  // The path is part of the diagnostic so sweeps can log which input died.
  EXPECT_NE(msg.find(c.file), std::string::npos) << msg;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptInputs,
    ::testing::Values(
        CorpusCase{"truncated.topo", "line 7", "unexpected end of file"},
        CorpusCase{"duplicate_edge.topo", "line 8", "duplicate link"},
        CorpusCase{"out_of_range_node.topo", "line 7", "out of range"},
        CorpusCase{"non_integer_degree.topo", "line 4",
                   "not a non-negative integer"}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      std::string name = info.param.file;
      for (auto& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

// Malformed gray fault plans: parameter-range violations and truncated
// records die at parse time with the offending line; a structurally valid
// plan naming an edge the target topology does not have dies at load time
// with the offending event index. All of them must be structured
// kInvalidInput, never a crash — this fixture also runs under asan/ubsan
// in CI (same "CorruptInputs" name filter as the topology corpus).
struct GrayPlanCase {
  const char* file;
  const char* expect_where;     // "line N" or "event N"
  const char* expect_fragment;  // what the diagnostic must mention
};

void PrintTo(const GrayPlanCase& c, std::ostream* os) { *os << c.file; }

class CorruptInputsGrayPlan : public ::testing::TestWithParam<GrayPlanCase> {};

TEST_P(CorruptInputsGrayPlan, YieldsInvalidInputNamingTheFault) {
  const auto& c = GetParam();
  const auto target = xpander(3, 4, 2, 1);
  const auto plan = fault::load_fault_plan(corpus(c.file), &target.topo);
  ASSERT_FALSE(plan.ok()) << c.file << " unexpectedly parsed";
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidInput) << c.file;
  const auto& msg = plan.status().message();
  EXPECT_NE(msg.find(c.expect_where), std::string::npos)
      << c.file << ": " << msg;
  EXPECT_NE(msg.find(c.expect_fragment), std::string::npos)
      << c.file << ": " << msg;
  EXPECT_NE(msg.find(c.file), std::string::npos) << msg;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptInputsGrayPlan,
    ::testing::Values(
        GrayPlanCase{"negative_drop_prob.plan", "line 1",
                     "drop probability"},
        GrayPlanCase{"duty_out_of_range.plan", "line 1", "flap duty"},
        GrayPlanCase{"truncated_flap.plan", "line 1",
                     "link-flap needs '<period_ns> <duty>'"},
        GrayPlanCase{"degrade_unknown_edge.plan", "event 0",
                     "out of range"}),
    [](const ::testing::TestParamInfo<GrayPlanCase>& info) {
      std::string name = info.param.file;
      for (auto& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace flexnets::topo
