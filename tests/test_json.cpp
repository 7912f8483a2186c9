#include "util/json.hpp"

#include <gtest/gtest.h>

namespace hcsim {
namespace {

JsonValue parse(const std::string& s) {
  JsonValue v;
  EXPECT_TRUE(parseJson(s, v)) << s;
  return v;
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").isNull());
  EXPECT_EQ(*parse("true").boolean(), true);
  EXPECT_EQ(*parse("false").boolean(), false);
  EXPECT_DOUBLE_EQ(*parse("42").number(), 42.0);
  EXPECT_DOUBLE_EQ(*parse("-3.5e2").number(), -350.0);
  EXPECT_EQ(*parse("\"hi\"").str(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue v = parse(R"({"a":[1,2,{"b":true}],"c":{"d":null}})");
  ASSERT_TRUE(v.isObject());
  const JsonValue* a = v.find("a");
  ASSERT_TRUE(a && a->isArray());
  EXPECT_EQ(a->array()->size(), 3u);
  EXPECT_TRUE((*a->array())[2].find("b")->boolean());
  EXPECT_TRUE(v.find("c")->find("d")->isNull());
}

TEST(Json, WhitespaceTolerant) {
  const JsonValue v = parse("  { \"x\" :\n[ 1 ,\t2 ] }  ");
  EXPECT_EQ(v.find("x")->array()->size(), 2u);
}

TEST(Json, RejectsMalformed) {
  JsonValue v;
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1}extra", "{a:1}", "[1 2]", "nan"}) {
    EXPECT_FALSE(parseJson(bad, v)) << bad;
  }
}

TEST(Json, RejectsNestingPastTheDepthLimit) {
  JsonValue v;
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parseJson(nested(256), v));
  EXPECT_FALSE(parseJson(nested(257), v));
  EXPECT_FALSE(parseJson(std::string(200000, '['), v));
  EXPECT_FALSE(parseJson(std::string(100000, '{') + "}", v));
}

TEST(Json, StringEscapes) {
  const JsonValue v = parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(*v.str(), "a\"b\\c\nd\teA");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(*parse(R"("é")").str(), "\xC3\xA9");       // é
  EXPECT_EQ(*parse(R"("€")").str(), "\xE2\x82\xAC");   // €
}

TEST(Json, WriteCompactRoundTrips) {
  const std::string src = R"({"a":[1,2.5,true,null,"s"],"b":{"c":"d"}})";
  const JsonValue v = parse(src);
  JsonValue again;
  ASSERT_TRUE(parseJson(writeJson(v), again));
  EXPECT_EQ(writeJson(v), writeJson(again));
}

TEST(Json, WriteIntegersWithoutDecimals) {
  JsonObject o;
  o["n"] = 1234567.0;
  EXPECT_EQ(writeJson(JsonValue(std::move(o))), "{\"n\":1234567}");
}

TEST(Json, WritePrettyIndents) {
  JsonObject o;
  o["a"] = JsonArray{JsonValue(1.0)};
  const std::string pretty = writeJson(JsonValue(std::move(o)), 2);
  EXPECT_NE(pretty.find("{\n  \"a\": [\n    1\n  ]\n}"), std::string::npos);
}

TEST(Json, TypedGettersWithDefaults) {
  const JsonValue v = parse(R"({"n":5,"s":"x","b":true})");
  EXPECT_DOUBLE_EQ(v.numberOr("n", 0), 5.0);
  EXPECT_DOUBLE_EQ(v.numberOr("missing", 7), 7.0);
  EXPECT_EQ(v.stringOr("s", ""), "x");
  EXPECT_EQ(v.stringOr("n", "fallback"), "fallback");  // wrong type
  EXPECT_TRUE(v.boolOr("b", false));
  EXPECT_TRUE(v.boolOr("missing", true));
}

TEST(Json, FindOnNonObjectIsNull) {
  EXPECT_EQ(parse("[1]").find("a"), nullptr);
  EXPECT_EQ(parse("3").find("a"), nullptr);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(writeJson(parse("{}")), "{}");
  EXPECT_EQ(writeJson(parse("[]")), "[]");
}

TEST(Json, EscapeHelper) {
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace hcsim
