#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace ficon::obs {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!parse_value(value)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(const char* literal) {
    const std::size_t start = pos_;
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        pos_ = start;
        return fail(std::string("invalid literal, expected ") + literal);
      }
      ++pos_;
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("truncated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += h - '0';
              } else if (h >= 'a' && h <= 'f') {
                code += 10 + (h - 'a');
              } else if (h >= 'A' && h <= 'F') {
                code += 10 + (h - 'A');
              } else {
                return fail("invalid \\u escape");
              }
            }
            if (code >= 0xD800 && code <= 0xDFFF) {
              return fail("surrogate pairs unsupported");
            }
            // UTF-8 encode the code point.
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
            return fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      return fail("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("digit expected in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(text_.c_str() + start, nullptr);
    out.literal.assign(text_, start, pos_ - start);
    return true;
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    skip_whitespace();
    if (consume('}')) return true;
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':')) return fail("expected ':'");
      JsonValue member;
      if (!parse_value(member)) return false;
      out.object.emplace(std::move(key), std::move(member));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    skip_whitespace();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_whitespace();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_value(JsonValue& out) {
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                      " levels");
        }
        ++pos_;
        ++depth_;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = JsonValue::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return parse_literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return parse_literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return parse_literal("null");
      default:
        return parse_number(out);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parse_json(const std::string& text,
                                    std::string* error) {
  return Parser(text).parse(error);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace ficon::obs
