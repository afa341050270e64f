// Numeric REQ fields are read strictly: the whole value must parse, and it
// must be in range. Each bad value is a typed parse error naming the
// request and the field, never a silently clamped or wrapped session.
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
