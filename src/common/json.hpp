#pragma once

// Minimal JSON value / parser / serializer.  Deliberately small: the what-if
// service speaks line-delimited JSON and the bench readback gates need to
// *parse* their emitted files instead of substring-matching them.  Objects
// preserve insertion order so serialization is deterministic.
//
// Layout.  A JsonValue is a type tag, one double (the number, or 0/1 for a
// bool) and a union holding the string, the array items or the object
// members — only the one the tag names is alive.  That keeps a value at
// 48 bytes (the union is as wide as one std::string), so the parser's and
// the service's moves, copies and destructors touch one container, not
// three.  The typed accessors keep the tolerant defaults of a value that
// is not of their type: false, 0, the empty string, no items, no members.
//
// Objects and duplicate keys.  An object keeps its members in insertion
// order.  set() replaces an existing key's value in place, else appends;
// the parser applies the same rule to a document's duplicate keys, so the
// first occurrence fixes the position and the last one the value.
//
// Numbers follow the RFC 8259 grammar strictly (no leading '+', no
// leading zeros, digits on both sides of '.', digits after the exponent)
// and parse to the correctly rounded double; a magnitude beyond double
// range parses to ±inf and one below it to ±0.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cosm::common {

class JsonValue;
using JsonMember = std::pair<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  JsonValue() noexcept {}
  JsonValue(std::nullptr_t) noexcept {}
  JsonValue(bool b) noexcept : type_(Type::kBool), number_(b ? 1.0 : 0.0) {}
  JsonValue(double n) noexcept : type_(Type::kNumber), number_(n) {}
  JsonValue(int n) noexcept : type_(Type::kNumber), number_(n) {}
  JsonValue(long n) noexcept
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(unsigned long n) noexcept
      : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  JsonValue(const char* s) : type_(Type::kString) {
    std::construct_at(&string_, s);
  }
  JsonValue(std::string s) noexcept : type_(Type::kString) {
    std::construct_at(&string_, std::move(s));
  }

  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept { take(other); }
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue() { destroy(); }

  static JsonValue array() {
    JsonValue v;
    v.become(Type::kArray);
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.become(Type::kObject);
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return type_ == Type::kBool && number_ != 0.0; }
  double as_number() const { return type_ == Type::kNumber ? number_ : 0.0; }
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<JsonMember>& members() const;

  // Array append (a value of another type becomes an empty array first).
  void push_back(JsonValue v) {
    become(Type::kArray);
    items_.push_back(std::move(v));
  }

  // Object field set (replaces an existing key in place, else appends; a
  // value of another type becomes an empty object first).
  void set(std::string_view key, JsonValue v);

  // Object field lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Typed accessors with defaults, for tolerant request parsing.
  double number_or(std::string_view key, double fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

  // Compact single-line serialization (doubles via shortest round-trip).
  std::string dump() const;

 private:
  friend class JsonParser;

  // Makes *this an empty value of `type` unless it already has that type.
  void become(Type type);
  // Destroys the live union member (the tag is left for the caller).
  void destroy() noexcept;
  // Move-constructs *this (raw storage) from `other`.
  void take(JsonValue& other) noexcept;
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  double number_ = 0.0;  // the number, or 0/1 for a bool
  union {
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<JsonMember> members_;
  };
};

inline const std::string& JsonValue::as_string() const {
  static const std::string empty;
  return type_ == Type::kString ? string_ : empty;
}

inline const std::vector<JsonValue>& JsonValue::items() const {
  static const std::vector<JsonValue> empty;
  return type_ == Type::kArray ? items_ : empty;
}

inline const std::vector<JsonMember>& JsonValue::members() const {
  static const std::vector<JsonMember> empty;
  return type_ == Type::kObject ? members_ : empty;
}

struct JsonParseResult {
  bool ok = false;
  std::string error;  // empty on success
  JsonValue value;
};

// Parses a complete JSON document; trailing non-whitespace is an error.
JsonParseResult json_parse(std::string_view text);

}  // namespace cosm::common
