// Tests for the one JSON reader, report::parse_json_value: the documents it
// accepts, the ones it refuses (and that the refusal says where), its
// number grammar, nesting cap, duplicate-member rule and escape decoding.
// Topology files, serve job files and store entries all read through it.
#include "report/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace paxsim::report {
namespace {

/// The reader's message for @p text, or "" when it parses.
std::string error_of(const std::string& text) {
  JsonValue v;
  std::string error;
  return parse_json_value(text, &v, &error) ? "" : error;
}

TEST(ParseJsonTest, AcceptsWellFormedValues) {
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e3", "\"a\\\"b\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}", "  [1, 2]  \n"}) {
    EXPECT_EQ(error_of(ok), "") << ok;
  }
}

TEST(ParseJsonTest, RejectsMalformedValues) {
  for (const char* bad : {"", "{", "[1,2", "{\"a\":}", "{a:1}", "{} {}",
                          "[1 2]", "{\"a\" 1}", "\"unterminated"}) {
    EXPECT_NE(error_of(bad).find(" at byte "), std::string::npos) << bad;
  }
}

TEST(ParseJsonTest, AcceptsStrictNumbers) {
  for (const char* ok : {"0", "-0", "0.5", "-0.5", "10", "1e5", "1E+5",
                         "1e-05", "2.5e-3", "18446744073709551615",
                         "1e-999"}) {
    EXPECT_EQ(error_of(ok), "") << ok;
  }
}

TEST(ParseJsonTest, RefusesNonStrictNumbers) {
  for (const char* bad :
       {"+1", "01", "-01", "1.", ".5", "2-5", "1e", "1e+", "1e999", "-1e999"}) {
    EXPECT_NE(error_of(bad), "") << bad;
    EXPECT_NE(error_of(std::string("{\"n\":").append(bad).append("}")), "")
        << bad;
  }
  EXPECT_EQ(error_of("01"), "leading zero in number at byte 2");
  EXPECT_EQ(error_of("[1e999]"), "number out of range at byte 6");
}

TEST(ParseJsonTest, NestingStopsAt64Levels) {
  EXPECT_EQ(error_of(std::string(64, '[') + std::string(64, ']')), "");
  EXPECT_EQ(error_of(std::string(65, '[') + std::string(65, ']')),
            "nesting too deep at byte 65");
  EXPECT_EQ(error_of(std::string(100000, '[')),
            "nesting too deep at byte 65");
  // Objects count the same as arrays.
  std::string objects;
  for (int i = 0; i < 65; ++i) objects += "{\"k\":";
  EXPECT_EQ(error_of(objects + "1" + std::string(65, '}')),
            "nesting too deep at byte 321");
}

TEST(ParseJsonTest, RefusesDuplicateMemberNamingIt) {
  EXPECT_EQ(error_of("{\"packages\":4,\"packages\":2}"),
            "duplicate member \"packages\" at byte 24");
  EXPECT_NE(error_of("{\"a\":{\"x\":1,\"y\":2,\"x\":3}}").find("\"x\""),
            std::string::npos);
  // The rule is per object: sibling and nested objects reuse names freely.
  EXPECT_EQ(error_of("[{\"x\":1},{\"x\":2}]"), "");
  EXPECT_EQ(error_of("{\"x\":{\"x\":1}}"), "");
}

TEST(ParseJsonTest, DecodesUnicodeEscapesAsUtf8) {
  JsonValue v;
  ASSERT_TRUE(parse_json_value("\"\\u00e9\"", &v));
  EXPECT_EQ(v.string, "\xc3\xa9");
  ASSERT_TRUE(parse_json_value("\"\\u0041\\u20ac\"", &v));
  EXPECT_EQ(v.string, "A\xe2\x82\xac");
  EXPECT_NE(error_of("\"\\u00g9\""), "");
  EXPECT_NE(error_of("\"\\u00"), "");
}

TEST(ParseJsonTest, AsU64TakesOnlyExactUnsignedLiterals) {
  JsonValue v;
  std::uint64_t u = 0;
  ASSERT_TRUE(parse_json_value("18446744073709551615", &v));
  ASSERT_TRUE(v.as_u64(&u));
  EXPECT_EQ(u, 18446744073709551615ull);
  for (const char* not_u64 : {"18446744073709551616", "-1", "2.0", "2e0"}) {
    ASSERT_TRUE(parse_json_value(not_u64, &v)) << not_u64;
    EXPECT_FALSE(v.as_u64(&u)) << not_u64;
  }
}

TEST(ParseJsonTest, ObjectsKeepWriterOrderAndFindByName) {
  JsonValue v;
  ASSERT_TRUE(parse_json_value("{\"b\":1,\"a\":\"s\"}", &v));
  ASSERT_EQ(v.members.size(), 2u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[1].first, "a");
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_EQ(v.find("b")->raw_number, "1");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.string_or("a", "-"), "s");
  EXPECT_EQ(v.string_or("b", "-"), "-");
}

}  // namespace
}  // namespace paxsim::report
