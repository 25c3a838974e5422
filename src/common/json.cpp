#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace cosm::common {

JsonValue::JsonValue(const JsonValue& other)
    : type_(other.type_), number_(other.number_) {
  switch (type_) {
    case Type::kString:
      std::construct_at(&string_, other.string_);
      break;
    case Type::kArray:
      std::construct_at(&items_, other.items_);
      break;
    case Type::kObject:
      std::construct_at(&members_, other.members_);
      break;
    default:
      break;
  }
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  if (this != &other) {
    destroy();
    take(other);
  }
  return *this;
}

void JsonValue::take(JsonValue& other) noexcept {
  type_ = other.type_;
  number_ = other.number_;
  switch (type_) {
    case Type::kString:
      std::construct_at(&string_, std::move(other.string_));
      break;
    case Type::kArray:
      std::construct_at(&items_, std::move(other.items_));
      break;
    case Type::kObject:
      std::construct_at(&members_, std::move(other.members_));
      break;
    default:
      break;
  }
}

void JsonValue::destroy() noexcept {
  switch (type_) {
    case Type::kString:
      std::destroy_at(&string_);
      break;
    case Type::kArray:
      std::destroy_at(&items_);
      break;
    case Type::kObject:
      std::destroy_at(&members_);
      break;
    default:
      break;
  }
}

void JsonValue::become(Type type) {
  if (type_ == type) return;
  destroy();
  type_ = type;
  number_ = 0.0;
  switch (type) {
    case Type::kString:
      std::construct_at(&string_);
      break;
    case Type::kArray:
      std::construct_at(&items_);
      break;
    case Type::kObject:
      std::construct_at(&members_);
      break;
    default:
      break;
  }
}

void JsonValue::set(std::string_view key, JsonValue v) {
  become(Type::kObject);
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& member : members_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string JsonValue::string_or(std::string_view key, std::string fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

namespace {

// True for the bytes dump_string must escape.
bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const char c = *p;
    if (!needs_escape(c)) continue;
    out.append(run, p);  // the unescaped run before c, in one append
    run = p + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                               kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(run, end);
  out.push_back('"');
}

void dump_number(double n, std::string& out) {
  if (!std::isfinite(n)) {
    // JSON has no inf/nan; emit null so readers fail loudly rather than
    // silently accepting a malformed token.
    out += "null";
    return;
  }
  char buf[32];
  // Integral values below 1e15 print as integers.  The range test comes
  // first: converting a double outside long long's range is undefined.
  // Every other finite double prints as its shortest round-trip form,
  // which fits the buffer.
  const bool integral =
      std::fabs(n) < 1e15 &&
      n == static_cast<double>(static_cast<long long>(n));
  const std::to_chars_result printed =
      integral ? std::to_chars(buf, buf + sizeof(buf),
                               static_cast<long long>(n))
               : std::to_chars(buf, buf + sizeof(buf), n);
  out.append(buf, printed.ptr);
}

}  // namespace

void JsonValue::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += number_ != 0.0 ? "true" : "false";
      break;
    case Type::kNumber:
      dump_number(number_, out);
      break;
    case Type::kString:
      dump_string(string_, out);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : items_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        item.dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& member : members_) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        dump_string(member.first, out);
        out.push_back(':');
        member.second.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// Recursive-descent parser over the input view.  Strings and containers
// are parsed in place into the value that holds them (a member's key and
// value, an array's item), so a document is built without moving values
// up the recursion; unescaped string runs are appended in bulk.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value)) {
      result.error = error_.empty() ? "invalid JSON" : error_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after JSON value";
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  using Type = JsonValue::Type;

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  // Bytes that can continue a number token: one that follows a complete
  // number makes the token malformed ("01", "1.2.3", "1e5e5").
  static bool is_number_char(char c) {
    return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
  }

  bool at_digit() const { return pos_ < text_.size() && is_digit(text_[pos_]); }

  void skip_digits() {
    while (at_digit()) ++pos_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool fail(const char* message) {
    if (error_.empty()) {
      error_ = message;
    }
    return false;
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Parses one value into `out`, which must be null.
  bool parse_value(JsonValue& out) {
    if (depth_ > kMaxDepth) {
      return fail("nesting too deep");
    }
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out.become(Type::kString);
        return parse_string(out.string_);
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out = JsonValue(true);
          return true;
        }
        return fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out = JsonValue(false);
          return true;
        }
        return fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return true;
        }
        return fail("invalid literal");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    ++depth_;
    out.become(Type::kObject);
    std::vector<JsonMember>& members = out.members_;
    skip_ws();
    if (consume('}')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonMember& member = members.emplace_back();
      if (!parse_string(member.first)) {
        return fail("expected object key");
      }
      skip_ws();
      if (!consume(':')) {
        return fail("expected ':' in object");
      }
      skip_ws();
      if (!parse_value(member.second)) {
        return false;
      }
      // A duplicate key keeps its first position and takes the last value
      // (the rule JsonValue::set applies).
      for (std::size_t i = 0; i + 1 < members.size(); ++i) {
        if (members[i].first == member.first) {
          members[i].second = std::move(member.second);
          members.pop_back();
          break;
        }
      }
      skip_ws();
      if (consume(',')) {
        continue;
      }
      if (consume('}')) {
        --depth_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    ++depth_;
    out.become(Type::kArray);
    std::vector<JsonValue>& items = out.items_;
    skip_ws();
    if (consume(']')) {
      --depth_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!parse_value(items.emplace_back())) {
        return false;
      }
      skip_ws();
      if (consume(',')) {
        continue;
      }
      if (consume(']')) {
        --depth_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      return fail("expected string");
    }
    while (pos_ < text_.size()) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) {
        break;
      }
      if (text_[pos_++] == '"') {
        return true;
      }
      // A backslash escape.
      if (pos_ >= text_.size()) {
        return fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          // Encode as UTF-8 (surrogate pairs not combined; each half is
          // encoded independently which is enough for our ASCII protocol).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    consume('-');
    if (!at_digit()) {
      return fail(pos_ == start && !is_number_char(text_[pos_])
                      ? "expected value"
                      : "invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      skip_digits();
    }
    if (consume('.')) {
      if (!at_digit()) return fail("invalid number");
      skip_digits();
    }
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!at_digit()) return fail("invalid number");
      skip_digits();
    }
    if (pos_ < text_.size() && is_number_char(text_[pos_])) {
      return fail("invalid number");
    }
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double value = 0.0;
    const std::from_chars_result parsed = std::from_chars(first, last, value);
    if (parsed.ec == std::errc::result_out_of_range) {
      // Beyond double range: strtod's ±inf / ±0, as for any other reader.
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (parsed.ec != std::errc() || parsed.ptr != last) {
      return fail("invalid number");
    }
    out = JsonValue(value);
    return true;
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

JsonParseResult json_parse(std::string_view text) {
  return JsonParser(text).run();
}

}  // namespace cosm::common
