#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

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

TEST(Json, ReadJsonFileNamesTheStepThatFailed) {
  const std::string path = std::string(::testing::TempDir()) + "json_file_test.json";
  JsonValue v;
  EXPECT_EQ(readJsonFile(path + ".absent", v), JsonFileStatus::Unreadable);
  for (const auto& [text, status] : {std::pair{"{\"a\": [1, 2]}", JsonFileStatus::Ok},
                                     std::pair{"{\"a\": [1, 2]", JsonFileStatus::NotJson},
                                     std::pair{"", JsonFileStatus::NotJson}}) {
    std::ofstream(path, std::ios::trunc) << text;
    EXPECT_EQ(readJsonFile(path, v), status) << text;
  }
  std::remove(path.c_str());
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

// The writer's number bytes: an integral value below 1e15 prints as
// "%.0f" would, anything else as "%.17g" would, alone, in a container,
// and pretty-printed.
TEST(Json, NumberBytesArePinned) {
  const std::pair<double, const char*> cases[] = {
      {-0.0, "-0"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3, "0.33333333333333331"},
      {-2.5, "-2.5"},
      {1e15 - 1, "999999999999999"},
      {1e15, "1000000000000000"},
      {9007199254740994.0, "9007199254740994"},  // 2^53 + 2
      {5e-324, "4.9406564584124654e-324"},
      {1.7976931348623157e308, "1.7976931348623157e+308"},
  };
  JsonArray all;
  std::string compact = "[";
  std::string pretty = "[\n";
  for (const auto& [d, text] : cases) {
    EXPECT_EQ(jsonNumber(d), text);
    EXPECT_EQ(writeJson(JsonValue(d)), text);
    EXPECT_EQ(writeJson(JsonValue(d), 2), text);
    compact += std::string(all.empty() ? "" : ",") + text;
    pretty += std::string(all.empty() ? "" : ",\n") + "  " + text;
    all.push_back(JsonValue(d));
  }
  EXPECT_EQ(writeJson(JsonValue(all)), compact + "]");
  EXPECT_EQ(writeJson(JsonValue(all), 2), pretty + "\n]");
}

// Every escape jsonEscape writes: the two JSON metacharacters, the three
// named control characters, \u00XX for every other control character
// (NUL included), and everything else byte for byte (/, DEL, UTF-8).
TEST(Json, EscapeBytesArePinned) {
  std::string in = "a\"b\\c\nd\te\rf";
  in += '\0';
  in += "\x01\b\f\x1f/\x7f\xc3\xa9";
  const std::string out = "a\\\"b\\\\c\\nd\\te\\rf\\u0000\\u0001\\u0008\\u000c\\u001f/\x7f\xc3\xa9";
  EXPECT_EQ(jsonEscape(in), out);
  EXPECT_EQ(writeJson(JsonValue(in)), "\"" + out + "\"");
  JsonObject o;
  o[in] = in;
  EXPECT_EQ(writeJson(JsonValue(o)), "{\"" + out + "\":\"" + out + "\"}");
}

TEST(Json, PrettyBytesArePinned) {
  JsonObject o;
  o["e"] = JsonArray{};
  o["o"] = JsonObject{};
  o["a"] = JsonArray{JsonValue(1.0), JsonValue(JsonObject{{"k", JsonValue(true)}}), JsonValue()};
  o["s"] = "x";
  EXPECT_EQ(writeJson(JsonValue(o), 2),
            "{\n  \"a\": [\n    1,\n    {\n      \"k\": true\n    },\n    null\n  ],\n"
            "  \"e\": [],\n  \"o\": {},\n  \"s\": \"x\"\n}");
  EXPECT_EQ(writeJson(JsonValue(o)), R"({"a":[1,{"k":true},null],"e":[],"o":{},"s":"x"})");
}

}  // namespace
}  // namespace hcsim
