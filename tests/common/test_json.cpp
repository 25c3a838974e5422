// common/json.hpp: the minimal JSON value/parser/serializer behind the
// what-if service protocol and the bench readback gates.  Round-trip
// fidelity (parse(dump(x)) == x structurally, shortest-round-trip
// doubles), deterministic member order, and loud rejection of malformed
// documents are the contracts under test.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

namespace {

using cosm::common::json_parse;
using cosm::common::JsonParseResult;
using cosm::common::JsonValue;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").value.is_null());
  EXPECT_EQ(json_parse("true").value.as_bool(), true);
  EXPECT_EQ(json_parse("false").value.as_bool(), false);
  EXPECT_DOUBLE_EQ(json_parse("-12.5e2").value.as_number(), -1250.0);
  EXPECT_EQ(json_parse("\"hi\\nthere\"").value.as_string(), "hi\nthere");
}

TEST(Json, ParsesNestedStructures) {
  const JsonParseResult result = json_parse(
      R"({"op":"sla","slas":[0.05,0.1],"nested":{"deep":[true,null]}})");
  ASSERT_TRUE(result.ok) << result.error;
  const JsonValue& root = result.value;
  EXPECT_EQ(root.string_or("op", ""), "sla");
  const JsonValue* slas = root.find("slas");
  ASSERT_NE(slas, nullptr);
  ASSERT_EQ(slas->items().size(), 2u);
  EXPECT_DOUBLE_EQ(slas->items()[1].as_number(), 0.1);
  const JsonValue* nested = root.find("nested");
  ASSERT_NE(nested, nullptr);
  const JsonValue* deep = nested->find("deep");
  ASSERT_NE(deep, nullptr);
  EXPECT_TRUE(deep->items()[0].as_bool());
  EXPECT_TRUE(deep->items()[1].is_null());
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
  // set() on an existing key replaces in place, preserving position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":9,"mid":3})");
}

TEST(Json, DumpRoundTripsDoublesExactly) {
  // Shortest-round-trip serialization: parse(dump(x)) must restore the
  // exact bit pattern — the property the service's determinism gate and
  // the bench artifacts rely on.
  for (const double x : {0.1, 1.0 / 3.0, 2.39e-11, 1e300, -0.0,
                         0.5238218799529069}) {
    JsonValue v(x);
    const JsonParseResult back = json_parse(v.dump());
    ASSERT_TRUE(back.ok) << v.dump() << ": " << back.error;
    EXPECT_EQ(back.value.as_number(), x) << v.dump();
  }
}

TEST(Json, StringsEscapeControlCharacters) {
  JsonValue v(std::string("a\"b\\c\n\t\x01"));
  const std::string dumped = v.dump();
  const JsonParseResult back = json_parse(dumped);
  ASSERT_TRUE(back.ok) << dumped << ": " << back.error;
  EXPECT_EQ(back.value.as_string(), v.as_string());
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "nul", "1 2", "{\"a\" 1}",
        "\"unterminated", "{\"dup\"::1}", "[1,]", "tru",
        // Numbers outside the RFC 8259 grammar.
        "+5", "01", "-01", ".5", "1.", "-", "-.5", "1e", "1e+", "1.e5",
        "0x10", "--1", "1.2.3", "1e5e5", "[+1]", "{\"a\":01}", "NaN",
        "Infinity"}) {
    EXPECT_FALSE(json_parse(bad).ok) << bad;
  }
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(json_parse("{} extra").ok);
  EXPECT_TRUE(json_parse("  {}  ").ok);  // whitespace is fine
}

TEST(Json, TypedAccessorsFallBack) {
  const JsonValue root =
      json_parse(R"({"rate":400,"name":"a","flag":true})").value;
  EXPECT_DOUBLE_EQ(root.number_or("rate", 1.0), 400.0);
  EXPECT_DOUBLE_EQ(root.number_or("missing", 7.5), 7.5);
  EXPECT_DOUBLE_EQ(root.number_or("name", 7.5), 7.5);  // wrong type
  EXPECT_EQ(root.string_or("name", "x"), "a");
  EXPECT_EQ(root.string_or("rate", "x"), "x");
  EXPECT_TRUE(root.bool_or("flag", false));
  EXPECT_FALSE(root.bool_or("missing", false));
}

TEST(Json, DepthLimitStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(json_parse(deep).ok);
}

TEST(Json, NumbersParseToTheCorrectlyRoundedDouble) {
  // Every grammatical number parses to strtod's double, bit for bit —
  // including magnitudes beyond double range (±inf, ±0) and denormals.
  for (const char* text :
       {"0", "-0", "7", "-12.5e2", "0.1", "1E+2", "2.5e-3", "1e400",
        "-1e400", "1e-400", "2e-324", "5e-324", "2.4e-320",
        "123456789012345678901234567890", "0.5238218799529069"}) {
    const JsonParseResult parsed = json_parse(text);
    ASSERT_TRUE(parsed.ok) << text << ": " << parsed.error;
    ASSERT_TRUE(parsed.value.is_number()) << text;
    const double expected = std::strtod(text, nullptr);
    const double got = parsed.value.as_number();
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0) << text;
  }
}

TEST(Json, DuplicateKeysKeepFirstPositionAndLastValue) {
  const JsonParseResult parsed =
      json_parse(R"({"a":1,"b":[2],"a":{"x":3},"c":4,"b":5})");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.members().size(), 3u);
  EXPECT_EQ(parsed.value.dump(), R"({"a":{"x":3},"b":5,"c":4})");
  // set() follows the same rule.
  JsonValue built = JsonValue::object();
  built.set("a", 1);
  built.set("b", JsonValue::array());
  built.set("a", JsonValue::object());
  built.set("c", 4);
  built.set("b", 5);
  built.set("a", parsed.value.find("a")->find("x")->as_number());
  EXPECT_EQ(built.dump(), R"({"a":3,"b":5,"c":4})");
}

TEST(Json, DumpEscapesExactlyTheControlQuoteAndBackslashBytes) {
  const JsonValue v(std::string("run\"of\\text\x01with\x1f\n\r\tescapes/\x7f"));
  EXPECT_EQ(v.dump(),
            "\"run\\\"of\\\\text\\u0001with\\u001f\\n\\r\\tescapes/\x7f\"");
  EXPECT_EQ(json_parse(v.dump()).value.as_string(), v.as_string());
  // Escapes decode in the middle of long unescaped runs too.
  const std::string long_run(100, 'x');
  const JsonParseResult parsed =
      json_parse("\"" + long_run + "\\u0041\\/" + long_run + "\"");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.as_string(), long_run + "A/" + long_run);
}

TEST(Json, ValuesAreCompactAndAccessorsTolerateOtherTypes) {
  EXPECT_LE(sizeof(JsonValue), 48u);
  const JsonValue number(2.5);
  const JsonValue flag(true);
  const JsonValue text("t");
  EXPECT_FALSE(number.as_bool());
  EXPECT_EQ(flag.as_number(), 0.0);
  EXPECT_TRUE(number.as_string().empty());
  EXPECT_TRUE(text.items().empty());
  EXPECT_TRUE(text.members().empty());
  EXPECT_EQ(text.find("t"), nullptr);
  // push_back / set turn a value of another type into an empty container.
  JsonValue changed("was a string");
  changed.push_back(1);
  EXPECT_EQ(changed.dump(), "[1]");
  changed.set("k", true);
  EXPECT_EQ(changed.dump(), R"({"k":true})");
}

TEST(Json, CopiesAndMovesAreDeep) {
  JsonValue root = json_parse(R"({"a":[1,{"b":"c"}],"d":"e"})").value;
  const JsonValue copy = root;
  JsonValue moved = std::move(root);
  EXPECT_EQ(moved.dump(), copy.dump());
  // Copy-assigning a value's own descendant over it.
  JsonValue by_copy = copy;
  by_copy = by_copy.find("a")->items()[1];
  EXPECT_EQ(by_copy.dump(), R"({"b":"c"})");
  moved = JsonValue(3);
  EXPECT_EQ(moved.dump(), "3");
  EXPECT_EQ(copy.dump(), R"({"a":[1,{"b":"c"}],"d":"e"})");
}

}  // namespace
