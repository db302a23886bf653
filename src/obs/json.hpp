/// \file
/// Minimal JSON value + recursive-descent parser, just enough to validate
/// the trace JSONL schema (tests, `tools/trace_lint`) without an external
/// dependency, plus the two helpers every JSON writer in the repo shares.
/// Supports the full JSON grammar except `\u` surrogate pairs, which the
/// trace writer never emits, and documents nested deeper than
/// kMaxJsonDepth.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ficon::obs {

/// Deepest array/object nesting parse_json() accepts. The parser recurses
/// once per level, so without a cap one frame of '[' overflows the stack;
/// the deepest document the repo writes (its SARIF log) has 9 levels.
constexpr int kMaxJsonDepth = 64;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A number's text as written, for integers a double cannot hold.
  std::string literal;
  std::string string;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  bool is_object() const { return type == Type::kObject; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

/// Parse a complete JSON document. Returns nullopt on any syntax error,
/// trailing garbage or nesting deeper than kMaxJsonDepth; fills `error`
/// (if non-null) with a position-tagged message.
std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error = nullptr);

/// `s` escaped for a JSON string literal, without the quotes: quote,
/// backslash and control characters are escaped, other bytes pass through.
std::string json_escape(std::string_view s);

/// %.17g: enough digits for a double to round-trip bit-exactly.
std::string json_number(double v);

}  // namespace ficon::obs
