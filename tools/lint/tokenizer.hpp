// ficon_lint v2 tokenizer — a comment/string-aware C++ lexer.
//
// This replaces the v1 line-regex scanner core. One pass over a source
// file produces:
//
//  * a token stream (identifiers, numbers, string/char literals,
//    punctuators, comments) with 1-based physical line numbers — the
//    input for the token-level rules (D001-D003, include extraction);
//  * two line-aligned "views" of the file, byte-for-byte positioned like
//    the original, that the pattern rules (F001-F008) match against:
//      - code view: comments and string/char literal *contents* blanked
//        (quote characters kept), so names inside strings or docs never
//        trip code rules;
//      - text view: comments blanked, literal contents kept — used where
//        the needle itself lives inside a literal (include paths, knob
//        names, emitted trace types).
//
// Lexing handles the cases the v1 state machine missed:
//  * backslash-newline line continuations are spliced inside any token
//    (including // comments, which legally continue onto the next line);
//  * raw strings R"delim(...)delim" with arbitrary delimiters, spanning
//    lines, never terminated by an escaped quote;
//  * multi-character punctuators (+=, ::, ->, ...) lex as one token so
//    rules can match on operator identity.
#pragma once

#include <string>
#include <vector>

namespace ficon::lint {

enum class TokKind {
  kIdent,    // identifiers and keywords
  kNumber,   // pp-numbers (1, 0x3f, 1.5e-3, 1'000)
  kString,   // "..." and R"(...)" — text holds the *contents*
  kChar,     // '...' — text holds the contents
  kPunct,    // operators and punctuation, multi-char ops combined
  kComment,  // // and /* */ — text holds the contents
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;  // see per-kind notes above
  int line = 0;      // 1-based physical line where the token starts
};

/// Both views of one source file, line-aligned with the original.
struct SourceViews {
  std::vector<std::string> code;
  std::vector<std::string> text;
};

struct TokenizedSource {
  std::vector<Token> tokens;
  SourceViews views;
};

/// Lex a whole file. Never fails: unterminated literals lex to
/// end-of-file, bogus bytes become single-char punctuators.
TokenizedSource tokenize(const std::string& source);

/// Split raw file content into physical lines (no trailing '\n').
std::vector<std::string> split_lines(const std::string& source);

}  // namespace ficon::lint
