#include "lint/tokenizer.hpp"

#include <cctype>

namespace ficon::lint {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Character cursor over physical lines. Newlines read as '\n'. The
/// `splice` flag on get()/peek() transparently joins backslash-newline
/// continuations (phase-2 translation) — everything except raw strings
/// reads through it.
class Cursor {
 public:
  explicit Cursor(const std::vector<std::string>& lines) : lines_(lines) {}

  bool eof() const { return li_ >= lines_.size(); }
  int line() const { return static_cast<int>(li_) + 1; }
  std::size_t line_index() const { return li_; }
  std::size_t col() const { return col_; }

  /// Peek `ahead` characters forward (0 = next). Splices continuations.
  char peek(std::size_t ahead = 0) const {
    std::size_t li = li_, col = col_;
    for (;;) {
      if (li >= lines_.size()) return '\0';
      skip_splice(li, col);
      if (li >= lines_.size()) return '\0';
      const char c = at(li, col);
      if (ahead == 0) return c;
      --ahead;
      advance_raw(li, col);
    }
  }

  /// Consume one character (after splicing); reports where it came from.
  char get(std::size_t* out_li, std::size_t* out_col) {
    skip_splice(li_, col_);
    if (eof()) return '\0';
    *out_li = li_;
    *out_col = col_;
    const char c = at(li_, col_);
    advance_raw(li_, col_);
    return c;
  }

  /// Raw variants for raw-string bodies: no continuation splicing.
  char peek_raw() const { return eof() ? '\0' : at(li_, col_); }
  char get_raw(std::size_t* out_li, std::size_t* out_col) {
    if (eof()) return '\0';
    *out_li = li_;
    *out_col = col_;
    const char c = at(li_, col_);
    advance_raw(li_, col_);
    return c;
  }

 private:
  char at(std::size_t li, std::size_t col) const {
    const std::string& l = lines_[li];
    return col < l.size() ? l[col] : '\n';
  }
  void advance_raw(std::size_t& li, std::size_t& col) const {
    if (col < lines_[li].size()) {
      ++col;
    } else {
      ++li;
      col = 0;
    }
  }
  /// While positioned on a backslash that ends its line, jump past it.
  void skip_splice(std::size_t& li, std::size_t& col) const {
    while (li < lines_.size() && col == lines_[li].size() - 1 &&
           !lines_[li].empty() && lines_[li][col] == '\\') {
      ++li;
      col = 0;
    }
  }

  const std::vector<std::string>& lines_;
  std::size_t li_ = 0;
  std::size_t col_ = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::vector<std::string>& lines)
      : lines_(lines), cur_(lines) {
    out_.views.code.reserve(lines.size());
    out_.views.text.reserve(lines.size());
    for (const std::string& l : lines) {
      out_.views.code.emplace_back(l.size(), ' ');
      out_.views.text.emplace_back(l.size(), ' ');
    }
  }

  TokenizedSource run() {
    while (!cur_.eof()) {
      const char c = cur_.peek();
      if (c == '\0') break;
      if (c == '\n' || std::isspace(static_cast<unsigned char>(c)) != 0) {
        std::size_t li, col;
        cur_.get(&li, &col);
        continue;
      }
      if (c == '/' && cur_.peek(1) == '/') {
        lex_line_comment();
      } else if (c == '/' && cur_.peek(1) == '*') {
        lex_block_comment();
      } else if (c == '"') {
        lex_string();
      } else if (c == '\'') {
        lex_char();
      } else if (is_ident_start(c)) {
        lex_ident_or_raw_string();
      } else if (is_digit(c) || (c == '.' && is_digit(cur_.peek(1)))) {
        lex_number();
      } else {
        lex_punct();
      }
    }
    return std::move(out_);
  }

 private:
  void put(std::size_t li, std::size_t col, char c, bool code, bool text) {
    if (li >= lines_.size() || col >= lines_[li].size()) return;
    if (code) out_.views.code[li][col] = c;
    if (text) out_.views.text[li][col] = c;
  }

  /// Consume one spliced char, mirror it into the selected views, append
  /// to `sink` when given.
  char take(bool code, bool text, std::string* sink = nullptr) {
    std::size_t li, col;
    const char c = cur_.get(&li, &col);
    if (c != '\0' && c != '\n') put(li, col, c, code, text);
    if (sink != nullptr && c != '\0') sink->push_back(c);
    return c;
  }

  void lex_line_comment() {
    Token t{TokKind::kComment, "", cur_.line()};
    take(false, false);  // '/'
    take(false, false);  // '/'
    // A line comment ends at an *unspliced* newline: the spliced cursor
    // transparently continues it across backslash-newline.
    while (!cur_.eof()) {
      if (cur_.peek() == '\n') {
        std::size_t li, col;
        cur_.get(&li, &col);
        break;
      }
      take(false, false, &t.text);
    }
    out_.tokens.push_back(std::move(t));
  }

  void lex_block_comment() {
    Token t{TokKind::kComment, "", cur_.line()};
    take(false, false);  // '/'
    take(false, false);  // '*'
    while (!cur_.eof()) {
      if (cur_.peek() == '*' && cur_.peek(1) == '/') {
        take(false, false);
        take(false, false);
        break;
      }
      const char c = take(false, false);
      if (c != '\n') t.text.push_back(c);
    }
    out_.tokens.push_back(std::move(t));
  }

  void lex_string() {
    Token t{TokKind::kString, "", cur_.line()};
    take(true, true);  // opening quote, kept in both views
    while (!cur_.eof()) {
      const char c = cur_.peek();
      if (c == '\n') break;  // unterminated; stop at end of line
      if (c == '\\') {
        take(false, true, &t.text);
        if (!cur_.eof() && cur_.peek() != '\n') take(false, true, &t.text);
        continue;
      }
      if (c == '"') {
        take(true, true);  // closing quote
        break;
      }
      take(false, true, &t.text);
    }
    out_.tokens.push_back(std::move(t));
  }

  void lex_char() {
    Token t{TokKind::kChar, "", cur_.line()};
    take(true, true);  // opening quote
    while (!cur_.eof()) {
      const char c = cur_.peek();
      if (c == '\n') break;
      if (c == '\\') {
        take(false, true, &t.text);
        if (!cur_.eof() && cur_.peek() != '\n') take(false, true, &t.text);
        continue;
      }
      if (c == '\'') {
        take(true, true);
        break;
      }
      take(false, true, &t.text);
    }
    out_.tokens.push_back(std::move(t));
  }

  void lex_ident_or_raw_string() {
    Token t{TokKind::kIdent, "", cur_.line()};
    while (!cur_.eof() && is_ident_char(cur_.peek())) {
      take(true, true, &t.text);
    }
    // Raw-string prefix? R"  u8R"  uR"  UR"  LR"
    if (cur_.peek() == '"' && !t.text.empty() && t.text.back() == 'R' &&
        (t.text == "R" || t.text == "u8R" || t.text == "uR" ||
         t.text == "UR" || t.text == "LR")) {
      lex_raw_string(std::move(t.text));
      return;
    }
    out_.tokens.push_back(std::move(t));
  }

  void lex_raw_string(std::string prefix) {
    // The prefix idents were already mirrored into both views; that
    // matches the v1 convention (R and " visible in the code view).
    Token t{TokKind::kString, "", cur_.line()};
    take(true, true);  // opening quote
    std::string delim;
    while (!cur_.eof() && cur_.peek_raw() != '(' && cur_.peek_raw() != '\n') {
      std::size_t li, col;
      const char c = cur_.get_raw(&li, &col);
      put(li, col, c, false, true);
      delim.push_back(c);
    }
    if (cur_.peek_raw() == '(') {
      std::size_t li, col;
      cur_.get_raw(&li, &col);
      put(li, col, '(', false, true);
    }
    const std::string closer = ")" + delim + "\"";
    std::string window;
    while (!cur_.eof()) {
      std::size_t li, col;
      const char c = cur_.get_raw(&li, &col);
      window.push_back(c);
      if (window.size() > closer.size()) window.erase(window.begin());
      if (window == closer) {
        // Drop the closer from the token text; it was written to the text
        // view already except this final quote, which both views keep.
        t.text.resize(t.text.size() - (closer.size() - 1));
        put(li, col, '"', true, true);
        break;
      }
      if (c != '\n') put(li, col, c, false, true);
      if (c != '\n') {
        t.text.push_back(c);
      } else {
        t.text.push_back('\n');
      }
    }
    (void)prefix;
    out_.tokens.push_back(std::move(t));
  }

  void lex_number() {
    Token t{TokKind::kNumber, "", cur_.line()};
    char prev = '\0';
    while (!cur_.eof()) {
      const char c = cur_.peek();
      const bool exp_sign =
          (c == '+' || c == '-') &&
          (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P');
      const bool digit_sep = c == '\'' && is_ident_char(cur_.peek(1));
      if (!(is_ident_char(c) || c == '.' || exp_sign || digit_sep)) break;
      prev = take(true, true, &t.text);
    }
    out_.tokens.push_back(std::move(t));
  }

  void lex_punct() {
    static const char* kThree[] = {"<<=", ">>=", "->*", "...", "<=>"};
    static const char* kTwo[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                                 ">=", "==", "!=", "&&", "||", "+=", "-=",
                                 "*=", "/=", "%=", "&=", "|=", "^=", "##"};
    Token t{TokKind::kPunct, "", cur_.line()};
    const char a = cur_.peek(), b = cur_.peek(1), c = cur_.peek(2);
    std::size_t len = 1;
    for (const char* op : kThree) {
      if (op[0] == a && op[1] == b && op[2] == c) {
        len = 3;
        break;
      }
    }
    if (len == 1) {
      for (const char* op : kTwo) {
        if (op[0] == a && op[1] == b) {
          len = 2;
          break;
        }
      }
    }
    for (std::size_t i = 0; i < len; ++i) take(true, true, &t.text);
    out_.tokens.push_back(std::move(t));
  }

  const std::vector<std::string>& lines_;
  Cursor cur_;
  TokenizedSource out_;
};

}  // namespace

std::vector<std::string> split_lines(const std::string& source) {
  std::vector<std::string> lines;
  std::string line;
  for (const char c : source) {
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(std::move(line));
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) {
    if (line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
  }
  return lines;
}

TokenizedSource tokenize(const std::string& source) {
  // The lexer borrows the line vector; keep it alive for the whole run.
  const std::vector<std::string> lines = split_lines(source);
  Lexer lexer(lines);
  return lexer.run();
}

}  // namespace ficon::lint
