// REQ fields are read strictly: a numeric value must parse whole and be in
// range, and a key must be one the parser reads. Each bad value or key is a
// typed parse error naming the request and the field, never a silently
// clamped, wrapped or defaulted session.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "service/jsonl.hpp"

namespace deepcat::service {
namespace {

/// Parses `line` expecting an invalid_argument that names the request id
/// "r" and `field`; returns the message for further checks.
std::string parse_error(const std::string& line, const std::string& field) {
  try {
    (void)parse_request_json(line, 0);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'r'"), std::string::npos) << what;
    EXPECT_NE(what.find("\"" + field + "\""), std::string::npos) << what;
    return what;
  }
  ADD_FAILURE() << "accepted: " << line;
  return {};
}

TEST(RequestFieldTest, StepsWithTrailingCharactersIsAParseError) {
  const std::string what = parse_error(
      R"({"id":"r","workload":"TS-D1","steps":"3abc"})", "steps");
  EXPECT_NE(what.find("3abc"), std::string::npos) << what;
}

TEST(RequestFieldTest, NegativeStepsIsAParseError) {
  (void)parse_error(R"({"id":"r","workload":"TS-D1","steps":-4})", "steps");
  (void)parse_error(R"({"id":"r","workload":"TS-D1","steps":0})", "steps");
}

TEST(RequestFieldTest, NonFiniteBudgetIsAParseError) {
  (void)parse_error(R"({"id":"r","workload":"TS-D1","budget_seconds":"nan"})",
                    "budget_seconds");
  (void)parse_error(R"({"id":"r","workload":"TS-D1","budget_seconds":"inf"})",
                    "budget_seconds");
  (void)parse_error(R"({"id":"r","workload":"TS-D1","budget_seconds":0})",
                    "budget_seconds");
}

TEST(RequestFieldTest, NegativeSeedIsAParseError) {
  (void)parse_error(R"({"id":"r","workload":"TS-D1","seed":-1})", "seed");
  (void)parse_error(R"({"id":"r","workload":"TS-D1","seed":"+1"})", "seed");
}

TEST(RequestFieldTest, UnknownKeyIsAParseError) {
  (void)parse_error(R"({"id":"r","workload":"TS-D1","stpes":1,"seed":3})",
                    "stpes");
  (void)parse_error(R"({"id":"r","workload":"TS-D1","Steps":2})", "Steps");
}

TEST(RequestFieldTest, DuplicateKeyIsAParseError) {
  // Last-one-wins would run 500,000 steps behind a "steps":1 the reader saw.
  for (const char* line :
       {R"({"workload":"TS-D1","steps":1,"steps":500000})",
        R"({"workload":"TS-D1","steps":1,"steps":1})"}) {
    try {
      (void)parse_request_json(line, 0);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate key \"steps\""),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse_flat_json(R"({"a":1,"b":2,"a":"x"})"),
               std::invalid_argument);
}

TEST(RequestFieldTest, EveryKnownKeyParses) {
  const TuningRequest r = parse_request_json(
      R"({"id":"r","workload":"TS-D1","cluster":"b","steps":2,)"
      R"("budget_seconds":9,"seed":4,"model":"m","warm":0,"trace":"t",)"
      R"("span":7,"scope":"workload"})",
      0);
  EXPECT_EQ(r.cluster, "b");
  EXPECT_EQ(r.max_steps, 2);
  EXPECT_EQ(r.model, "m");
  EXPECT_EQ(r.trace_span, 7u);
  EXPECT_EQ(r.scope, TuneScope::kWorkload);
}

TEST(RequestFieldTest, WellFormedNumbersParse) {
  const TuningRequest r = parse_request_json(
      R"({"id":"r","workload":"TS-D1","steps":7,"budget_seconds":12.5,)"
      R"("seed":18446744073709551615})",
      0);
  EXPECT_EQ(r.max_steps, 7);
  EXPECT_EQ(r.max_total_seconds, 12.5);
  EXPECT_EQ(r.seed, 18446744073709551615ull);
}

}  // namespace
}  // namespace deepcat::service
