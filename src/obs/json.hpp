// Minimal JSON reading and writing for the observability exporters.
//
// The exporters (Chrome trace events, metrics.json) only need to WRITE
// JSON, but the tests and the `json_check` CI tool need to prove that what
// was written actually parses — and the toolchain image carries no JSON
// library.  So this header is both halves, deliberately small: a strict
// RFC 8259 recursive-descent parser into a plain DOM, and the few string /
// number formatting helpers every writer in src/obs shares.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wrht::obs {

struct JsonValue {
  enum class Kind : unsigned char {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order (duplicate keys are kept; find returns the
  /// first, which is what every consumer here wants).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or when this is not an
  /// object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

struct JsonParseResult {
  bool ok = false;
  JsonValue value;
  /// On failure: what went wrong and the byte offset it went wrong at.
  std::string error;
  std::size_t offset = 0;
};

/// Strict parse of a complete JSON document (trailing garbage is an error).
[[nodiscard]] JsonParseResult json_parse(std::string_view text);

/// `s` with JSON string escapes applied, WITHOUT surrounding quotes.
[[nodiscard]] std::string json_escape(std::string_view s);

/// `s` escaped and quoted — a complete JSON string token.
[[nodiscard]] std::string json_quote(std::string_view s);

/// A JSON number token for `v` that parses back bit-equal.  Non-finite
/// values (which JSON cannot represent) render as 0.
[[nodiscard]] std::string json_number(double v);

}  // namespace wrht::obs
