#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace deepcat::common {
namespace {

TEST(JsonEscapeTest, PlainTextPassesThrough) {
  EXPECT_EQ(json_escape("stream.rec_seconds"), "stream.rec_seconds");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
}

TEST(JsonEscapeTest, QuotesBackslashesAndWhitespaceEscape) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\ny\tz\r"), "x\\ny\\tz\\r");
}

TEST(JsonEscapeTest, OtherControlBytesBecomeUnicodeEscapes) {
  EXPECT_EQ(json_escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("\x1f\x7f"), "\\u001f\x7f");  // DEL is legal JSON
}

}  // namespace
}  // namespace deepcat::common
