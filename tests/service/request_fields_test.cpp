// REQ fields are read strictly: a numeric value must parse whole and be in
// range, and a key must be one the parser reads. Each bad value or key is a
// typed parse error naming the request and the field, never a silently
// clamped, wrapped or defaulted session.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "service/jsonl.hpp"
#include "service/streaming.hpp"

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
  // A request's "model" is its only routing key.
  (void)parse_error(R"({"id":"r","workload":"TS-D1","scope":"workload"})",
                    "scope");
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

TEST(RequestFieldTest, RawControlCharacterInAStringIsAParseError) {
  // A raw byte below 0x20 inside a string is not JSON; copied into an id
  // or a model name it would come back raw in the REP or ERR, which
  // strict readers reject. Escaped, the same text parses.
  for (const char* line :
       {"{\"id\":\"r\x01\",\"workload\":\"TS-D1\"}",
        "{\"id\":\"r\",\"workload\":\"TS-D1\x01\"}",
        "{\"id\":\"r\",\"workload\":\"TS-D1\",\"model\":\"m\x1f\"}",
        "{\"id\":\"r\",\"workload\":\"TS-D1\",\"trace\":\"t\x01\"}",
        "{\"id\":\"r\",\"workload\":\"TS-D1\",\"trace\":\"a\tb\"}",
        "{\"id\x01\":\"r\",\"workload\":\"TS-D1\"}"}) {
    try {
      (void)parse_request_json(line, 0);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "malformed JSON: unescaped control character"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(parse_request_json(R"({"id":"a\tb","workload":"TS-D1"})", 0).id,
            "a\tb");
  // A STAT payload is read by the same parser, so it fails typed too.
  const auto stat = stat_payload_error("{\"k\":\"v\x01\"}");
  ASSERT_TRUE(stat.has_value());
  EXPECT_NE(stat->find("unescaped control character"), std::string::npos)
      << *stat;
}

TEST(RequestFieldTest, UnicodeEscapesDecodeToUtf8) {
  // Python's json.dumps writes non-ASCII as \u escapes by default.
  const TuningRequest r = parse_request_json(
      R"({"id":"caf\u00e9","workload":"TS-D1"})", 0);
  EXPECT_EQ(r.id, "caf\xc3\xa9");
  StreamReport report;
  report.session.id = r.id;
  EXPECT_NE(stream_reply_payload(report).find("\"id\":\"caf\xc3\xa9\""),
            std::string::npos);
  EXPECT_EQ(parse_flat_json(R"({"k":"\u00E9\u00e9"})").at("k"),
            "\xc3\xa9\xc3\xa9");
  // A surrogate pair is one code point, one 4-byte sequence.
  EXPECT_EQ(parse_flat_json(R"({"k":"\ud83d\ude00"})").at("k"),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_flat_json(R"({"k":"a\b\fz"})").at("k"), "a\b\fz");
}

TEST(RequestFieldTest, BrokenUnicodeEscapesAreParseErrors) {
  const auto fails_with = [](const char* line, const std::string& why) {
    try {
      (void)parse_request_json(line, 0);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "malformed JSON: " + why) << line;
    }
  };
  for (const char* lone : {R"({"id":"\ud83d","workload":"TS-D1"})",
                           R"({"id":"\ud83dx","workload":"TS-D1"})",
                           R"({"id":"\ude00\ud83d","workload":"TS-D1"})",
                           R"({"id":"\ud83d\u0041","workload":"TS-D1"})"}) {
    fails_with(lone, "unpaired surrogate in \\u escape");
  }
  for (const char* short_or_not_hex :
       {R"({"id":"\u12","workload":"TS-D1"})", R"({"id":"\u12)",
        R"({"id":"\uZZZZ","workload":"TS-D1"})",
        R"({"id":"\u-123","workload":"TS-D1"})"}) {
    fails_with(short_or_not_hex, "invalid \\u escape");
  }
}

TEST(RequestFieldTest, EveryEscapedAsciiByteReadsBack) {
  // json_escape is the one escaper every JSON writer calls; what it writes
  // the reader must read back, control bytes (as \u00XX) included.
  for (int b = 0; b < 0x80; ++b) {
    const std::string id = "a" + std::string(1, static_cast<char>(b)) + "z";
    const std::string line =
        "{\"id\":\"" + common::json_escape(id) + "\",\"workload\":\"TS-D1\"}";
    EXPECT_EQ(parse_request_json(line, 0).id, id) << "byte " << b;
  }
}

TEST(RequestFieldTest, EveryKnownKeyParses) {
  const TuningRequest r = parse_request_json(
      R"({"id":"r","workload":"TS-D1","cluster":"b","steps":2,)"
      R"("budget_seconds":9,"seed":4,"model":"m","warm":0,"trace":"t",)"
      R"("span":7})",
      0);
  EXPECT_EQ(r.cluster, "b");
  EXPECT_EQ(r.max_steps, 2);
  EXPECT_EQ(r.model, "m");
  EXPECT_EQ(r.trace_span, 7u);
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
