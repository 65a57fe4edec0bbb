#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace wrht::obs {

namespace {

/// Nesting guard: the exporters emit flat documents, so anything deeper
/// than this is a malformed input, not a legitimate trace.
constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult out;
    skip_whitespace();
    if (!parse_value(out.value, 0)) {
      out.error = std::move(error_);
      out.offset = pos_;
      return out;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      out.error = "trailing characters after the document";
      out.offset = pos_;
      return out;
    }
    out.ok = true;
    return out;
  }

 private:
  [[nodiscard]] bool fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return consume_literal("null");
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return consume_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return consume_literal("false");
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        out.kind = JsonValue::Kind::kNumber;
        return parse_number(out.number);
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      skip_whitespace();
      if (!parse_value(element, depth + 1)) return false;
      out.array.push_back(std::move(element));
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out.push_back(escape);
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
          // Validate the four hex digits; decode the BMP code point as
          // UTF-8.  Surrogate pairs are validated as two escapes but not
          // recombined — nothing in this repo emits them.
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return fail("unterminated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
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
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return fail("invalid number");
    }
    // Grammar check (JSON forbids leading zeros and bare dots); the value
    // itself comes from strtod over the validated span.
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digit required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    out = std::strtod(token.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonParseResult json_parse(std::string_view text) {
  return Parser(text).run();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_quote(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  // 15 significant digits read well and already round-trip most values;
  // the rest take 17, so a parsed number is always bit-equal to `v`.
  std::snprintf(buf, sizeof buf, "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace wrht::obs
