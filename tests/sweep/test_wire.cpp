// Wire-protocol tests: round-trips for every frame type, strict-parser
// rejections, protocol-order validation, and the fuzz corpus
// (tests/corrupt_inputs/*.frames) — truncated, garbage, and out-of-order
// frames must all yield structured kInvalidInput, never a crash. The
// corpus also runs under the asan-ubsan preset via tools/ci.sh.
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/journal.hpp"
#include "sweep/wire.hpp"

namespace flexnets::sweep {
namespace {

TEST(WireFormat, RoundTripsEveryFrameType) {
  core::JournalRecord rec{"swt/3",
                          StatusCode::kOk,
                          "",
                          {{"v", 1.5}, {"w", 3.0}}};
  const std::vector<std::string> lines = {
      format_lease_frame(7, 2),   format_shutdown_frame(),
      format_ready_frame(),       format_start_frame(7, 2),
      format_result_frame(3, 1, rec),
      format_error_frame("lease index 99 out of range"),
  };
  const std::vector<WireFrame> want = {
      {FrameType::kLease, 7, 2, "", ""},
      {FrameType::kShutdown, 0, 0, "", ""},
      {FrameType::kReady, 0, 0, "", ""},
      {FrameType::kStart, 7, 2, "", ""},
      {FrameType::kResult, 3, 1, core::to_json_line(rec), ""},
      {FrameType::kError, 0, 0, "", "lease index 99 out of range"},
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto got = parse_wire_frame(lines[i]);
    ASSERT_TRUE(got.ok()) << lines[i] << ": " << got.status().to_string();
    EXPECT_EQ(*got, want[i]) << lines[i];
  }
}

TEST(WireFormat, ResultFrameEmbeddedRecordSurvivesEscaping) {
  // Message with every character the JSON escaper must handle: the
  // record travels as a string inside a string (double-escaped).
  core::JournalRecord rec{"swt/9",
                          StatusCode::kInternal,
                          "he said \"x\\y\"\n\ttwice",
                          {{"v", -0.0}}};
  const auto frame = parse_wire_frame(format_result_frame(9, 4, rec));
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  const auto back = core::parse_json_line(frame->record);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(*back, rec);
}

struct RejectCase {
  const char* name;      // stable label for the case
  const char* line;
  const char* fragment;  // what the diagnostic must mention
};

// Without this, gtest prints a RejectCase as its raw bytes: two string
// pointers that move on every run under ASLR. CTest's test discovery names
// each case after that printout, so the names would change from build to
// build; print the fixed label instead.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class WireReject : public ::testing::TestWithParam<RejectCase> {};

TEST_P(WireReject, YieldsInvalidInput) {
  const auto& c = GetParam();
  const auto got = parse_wire_frame(c.line);
  ASSERT_FALSE(got.ok()) << c.line << " unexpectedly parsed";
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidInput) << c.line;
  EXPECT_NE(got.status().message().find(c.fragment), std::string::npos)
      << c.line << ": " << got.status().message();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, WireReject,
    ::testing::Values(
        RejectCase{"empty_line", "", "expected '{'"},
        RejectCase{"not_json", "not json", "expected '{'"},
        RejectCase{"unterminated_object",
                   "{\"type\":\"lease\",\"index\":1,\"attempt\":1",
                   "expected '}'"},
        RejectCase{"unknown_type", "{\"type\":\"warp\"}", "unknown type"},
        RejectCase{"missing_type", "{\"index\":3,\"attempt\":1}",
                   "missing type"},
        RejectCase{"unknown_field",
                   "{\"type\":\"lease\",\"index\":1,\"attempt\":1,"
                   "\"extra\":9}",
                   "unknown field"},
        RejectCase{"ready_with_index",
                   "{\"type\":\"ready\",\"index\":0,\"attempt\":1}",
                   "index+attempt exactly when defined"},
        RejectCase{"lease_without_attempt",
                   "{\"type\":\"lease\",\"index\":1}",
                   "index+attempt exactly when defined"},
        RejectCase{"attempt_zero",
                   "{\"type\":\"lease\",\"index\":1,\"attempt\":0}",
                   "malformed attempt"},
        RejectCase{"attempt_too_large",
                   "{\"type\":\"lease\",\"index\":1,\"attempt\":1000001}",
                   "malformed attempt"},
        RejectCase{"negative_index",
                   "{\"type\":\"lease\",\"index\":-2,\"attempt\":1}",
                   "malformed index"},
        RejectCase{"result_without_record",
                   "{\"type\":\"result\",\"index\":0,\"attempt\":1}",
                   "requires record"},
        RejectCase{"start_with_record",
                   "{\"type\":\"start\",\"index\":0,\"attempt\":1,"
                   "\"record\":\"x\"}",
                   "forbids record"},
        RejectCase{"error_without_message", "{\"type\":\"error\"}",
                   "requires message"},
        RejectCase{"trailing_garbage", "{\"type\":\"shutdown\"}}",
                   "trailing garbage"},
        RejectCase{"repeated_type", "{\"type\":\"lease\",\"type\":\"lease\"}",
                   "repeated type"}));

TEST(WireOrder, StartAndResultMustNameTheOutstandingLease) {
  const WireFrame start{FrameType::kStart, 5, 2, "", ""};
  // Matching index AND attempt: in order.
  EXPECT_TRUE(validate_frame_order(start, std::size_t{5}, 2).ok());
  // No lease outstanding at all.
  auto st = validate_frame_order(start, std::nullopt, 0);
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput);
  EXPECT_NE(st.message().find("no lease outstanding"), std::string::npos);
  // Wrong point.
  st = validate_frame_order(start, std::size_t{4}, 2);
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput);
  // Stale attempt (a resurrected frame from before a reschedule).
  st = validate_frame_order(start, std::size_t{5}, 3);
  EXPECT_EQ(st.code(), StatusCode::kInvalidInput);
  EXPECT_NE(st.message().find("expected point 5 attempt 3"),
            std::string::npos);
  // Non-progress frames are never order-checked.
  EXPECT_TRUE(
      validate_frame_order({FrameType::kReady, 0, 0, "", ""}, std::nullopt, 0)
          .ok());
}

// Fuzz corpus: every line of every *.frames file is hostile input straight
// off a (possibly dying) worker's pipe. Each line must either fail
// parse_wire_frame with kInvalidInput, or — for well-formed but
// out-of-sequence frames — fail validate_frame_order against an idle peer.
class FramesCorpus : public ::testing::TestWithParam<const char*> {};

TEST_P(FramesCorpus, EveryLineIsRejectedStructurally) {
  const std::string path = std::string(FLEXNETS_TEST_DATA_DIR) +
                           "/corrupt_inputs/" + GetParam();
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const auto frame = parse_wire_frame(line);
    if (!frame.ok()) {
      EXPECT_EQ(frame.status().code(), StatusCode::kInvalidInput)
          << path << " line " << lines;
      continue;
    }
    const auto order = validate_frame_order(*frame, std::nullopt, 0);
    ASSERT_FALSE(order.ok())
        << path << " line " << lines << " parsed AND validated: " << line;
    EXPECT_EQ(order.code(), StatusCode::kInvalidInput)
        << path << " line " << lines;
  }
  EXPECT_GT(lines, 0u) << path << " is empty";
}

INSTANTIATE_TEST_SUITE_P(Corpus, FramesCorpus,
                         ::testing::Values("truncated.frames",
                                           "garbage.frames",
                                           "out_of_order.frames"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name = i.param;
                           for (auto& ch : name) {
                             if (ch == '.') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace flexnets::sweep
