#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>

#include "lint/tokenizer.hpp"

namespace ficon::lint {
namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// One file mid-analysis: the raw lines (for default tokens), the token
/// stream and views, and the output under construction.
struct FileCtx {
  const std::string& rel;
  const std::vector<std::string>& raw;
  const TokenizedSource& src;
  FileAnalysis* out;

  void add(const std::string& rule, int line, const std::string& message,
           std::string token = "") {
    if (token.empty() && line >= 1 &&
        static_cast<std::size_t>(line) <= raw.size()) {
      token = collapse_whitespace(raw[line - 1]);
    }
    out->findings.push_back({rule, rel, line, message, std::move(token)});
  }
};

void extract_includes(FileCtx& ctx) {
  const std::vector<Token>& t = ctx.src.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind == TokKind::kPunct && t[i].text == "#" &&
        t[i + 1].kind == TokKind::kIdent && t[i + 1].text == "include" &&
        t[i + 2].kind == TokKind::kString) {
      ctx.out->includes.push_back({t[i + 2].text, t[i + 2].line});
    }
  }
}

// F001 (per-file half) — no raw getenv(); collect env_*("FICON_...")
// knob reads for the aggregation-time README check.
void rule_env_discipline(FileCtx& ctx) {
  static const std::regex raw_getenv("\\bgetenv\\s*\\(");
  static const std::regex knob_read(
      "\\benv_(?:string|int|double|list)\\s*\\(\\s*\"([A-Za-z0-9_]+)\"");
  const bool is_env_hpp = ctx.rel == "src/util/env.hpp";
  for (std::size_t i = 0; i < ctx.src.views.code.size(); ++i) {
    if (!is_env_hpp && std::regex_search(ctx.src.views.code[i], raw_getenv)) {
      ctx.add("F001", static_cast<int>(i + 1),
              "raw getenv(): read knobs through the env_* helpers in "
              "util/env.hpp");
    }
    const std::string& text = ctx.src.views.text[i];
    for (auto it = std::sregex_iterator(text.begin(), text.end(), knob_read);
         it != std::sregex_iterator(); ++it) {
      const std::string knob = (*it)[1].str();
      if (!starts_with(knob, "FICON_")) continue;
      ctx.out->knobs.push_back({knob, static_cast<int>(i + 1)});
    }
  }
}

// F002 (per-file half) — collect every record type the trace writer
// emits or the validator declares in src/obs/; membership in the schema
// registry is checked at aggregation.
void rule_trace_names(FileCtx& ctx) {
  if (!starts_with(ctx.rel, "src/obs/") || ctx.rel == "src/obs/schema.hpp") {
    return;
  }
  static const std::regex emitted_type(
      "\\{\\\\\"type\\\\\":\\\\\"(\\w+)\\\\\"");
  static const std::regex schema_row("\\{\"(\\w+)\",(\\s*$|\\s*\\{\\{)");
  static const std::regex schema_fn("\\btrace_schema\\s*\\(\\s*\\)");
  bool in_schema_fn = false;
  for (std::size_t i = 0; i < ctx.src.views.text.size(); ++i) {
    const std::string& text = ctx.src.views.text[i];
    if (std::regex_search(ctx.src.views.code[i], schema_fn)) {
      in_schema_fn = true;
    } else if (in_schema_fn && !ctx.src.views.code[i].empty() &&
               ctx.src.views.code[i][0] == '}') {
      in_schema_fn = false;  // function body closed at column 0
    }
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), emitted_type);
         it != std::sregex_iterator(); ++it) {
      ctx.out->traces.push_back(
          {"type", (*it)[1].str(), static_cast<int>(i + 1)});
    }
    std::smatch m;
    if (in_schema_fn && std::regex_search(text, m, schema_row)) {
      ctx.out->traces.push_back(
          {"schema_row", m[1].str(), static_cast<int>(i + 1)});
    }
  }
}

// F003 — examples/, bench/ and tools/ stay behind the umbrella header.
void rule_umbrella_includes(FileCtx& ctx) {
  static const std::regex deep_include(
      "#include\\s*\"(?:src/)?(?:geom|circuit|floorplan|route|router|"
      "congestion|anneal|core|exp|gen|obs|util|numeric|service)/[^\"]+\"");
  static const std::regex json_include(
      "#include\\s*\"(?:src/)?obs/json\\.hpp\"");
  const bool tool = starts_with(ctx.rel, "tools/");
  if (!starts_with(ctx.rel, "examples/") && !starts_with(ctx.rel, "bench/") &&
      !tool) {
    return;
  }
  for (std::size_t i = 0; i < ctx.src.views.text.size(); ++i) {
    // The include path itself is a string literal — use the text view.
    if (std::regex_search(ctx.src.views.text[i], deep_include)) {
      if (tool && std::regex_search(ctx.src.views.text[i], json_include)) {
        continue;
      }
      ctx.add("F003", static_cast<int>(i + 1),
              tool ? "deep src/ include; tools include \"ficon.hpp\" or "
                     "\"obs/json.hpp\" only"
                   : "deep src/ include; examples and benches include "
                     "\"ficon.hpp\" only");
    }
  }
}

// F004 — no ==/!= against floating-point literals.
void rule_float_equality(FileCtx& ctx) {
  static const std::regex float_eq(
      "(?:[=!]=\\s*[-+]?(?:\\d+\\.\\d*|\\.\\d+|"
      "\\d+(?:\\.\\d*)?[eE][-+]?\\d+)[fFlL]?)|"
      "(?:(?:\\d+\\.\\d*|\\.\\d+|\\d+(?:\\.\\d*)?[eE][-+]?\\d+)[fFlL]?"
      "\\s*[=!]=)");
  // Simpson integrators compare interval endpoints exactly on purpose.
  static const std::set<std::string> file_allowlist = {
      "src/congestion/approx.cpp", "src/numeric/simpson.hpp"};
  static const std::regex assertion_macro(
      "\\b(?:EXPECT_|ASSERT_|static_assert)");
  if (file_allowlist.count(ctx.rel) != 0) return;
  for (std::size_t i = 0; i < ctx.src.views.code.size(); ++i) {
    const std::string& code = ctx.src.views.code[i];
    if (!std::regex_search(code, float_eq)) continue;
    if (std::regex_search(code, assertion_macro)) continue;
    ctx.add("F004", static_cast<int>(i + 1),
            "floating-point ==/!= against a literal; use an epsilon or an "
            "integer representation");
  }
}

// F005 — randomness flows through util/rng.hpp seeded streams only.
void rule_rng_discipline(FileCtx& ctx) {
  static const std::regex raw_rng(
      "\\bstd::rand\\b|\\bsrand\\s*\\(|\\brandom_device\\b|"
      "\\bmt19937(?:_64)?\\b");
  if (ctx.rel == "src/util/rng.hpp") return;
  for (std::size_t i = 0; i < ctx.src.views.code.size(); ++i) {
    if (std::regex_search(ctx.src.views.code[i], raw_rng)) {
      ctx.add("F005", static_cast<int>(i + 1),
              "raw RNG primitive; use the seeded Rng streams from "
              "util/rng.hpp");
    }
  }
}

// F006 — in a class with a base list, `virtual` members must say
// `override` (and `virtual` together with `override` is redundant).
void rule_missing_override(FileCtx& ctx) {
  static const std::regex derived_head(
      "\\b(?:class|struct)\\s+\\w+[^;{=]*:\\s*"
      "(?:public|protected|private|virtual)\\b");
  static const std::regex enum_head("\\benum\\s+(?:class|struct)\\b");
  static const std::regex any_head("\\b(?:class|struct)\\s+\\w+");
  static const std::regex virtual_kw("\\bvirtual\\b");
  static const std::regex override_kw("\\boverride\\b|\\bfinal\\b");
  // Stack of (brace depth at class open, class has a base list).
  std::vector<std::pair<int, bool>> classes;
  int depth = 0;
  bool pending = false;          // class head seen, '{' not yet
  bool pending_derived = false;  // ... and it has a base list
  for (std::size_t i = 0; i < ctx.src.views.code.size(); ++i) {
    const std::string& code = ctx.src.views.code[i];
    if (!pending && !std::regex_search(code, enum_head) &&
        std::regex_search(code, any_head) &&
        code.find(';') == std::string::npos) {
      pending = true;
      pending_derived = std::regex_search(code, derived_head);
    } else if (pending && std::regex_search(code, derived_head)) {
      pending_derived = true;  // base list on a continuation line
    }
    const bool in_derived = !classes.empty() && classes.back().second;
    if (in_derived && std::regex_search(code, virtual_kw)) {
      if (std::regex_search(code, override_kw)) {
        ctx.add("F006", static_cast<int>(i + 1),
                "redundant `virtual` on an override (override implies "
                "virtual)");
      } else {
        ctx.add("F006", static_cast<int>(i + 1),
                "virtual member in a derived class must say `override` "
                "(or `final`)");
      }
    }
    for (const char c : code) {
      if (c == '{') {
        if (pending) {
          classes.emplace_back(depth, pending_derived);
          pending = false;
        }
        ++depth;
      } else if (c == '}') {
        --depth;
        if (!classes.empty() && classes.back().first == depth) {
          classes.pop_back();
        }
      }
    }
  }
}

// F007 — no ad-hoc SVG emission outside src/exp/. tests/ may quote the
// markup to assert on it; this file holds the needle literal itself.
void rule_svg_emission(FileCtx& ctx) {
  if (starts_with(ctx.rel, "src/exp/") || starts_with(ctx.rel, "tests/") ||
      ctx.rel == "tools/lint/rules.cpp") {
    return;
  }
  for (std::size_t i = 0; i < ctx.src.views.text.size(); ++i) {
    // The marker lives inside a string literal — use the text view.
    if (ctx.src.views.text[i].find("<svg") != std::string::npos) {
      ctx.add("F007", static_cast<int>(i + 1),
              "ad-hoc SVG emission; render through HeatMapSource / "
              "write_svg in src/exp/");
    }
  }
}

// F008 — the exact and reference probability engines are internal: only
// src/congestion/ itself and the tests may include path_prob.hpp /
// approx.hpp directly; everyone else includes prob_kernel.hpp.
void rule_probability_internal_headers(FileCtx& ctx) {
  static const std::regex deep_prob_include(
      "#include\\s*\"(?:src/)?congestion/(?:path_prob|approx)\\.hpp\"");
  if (starts_with(ctx.rel, "src/congestion/") ||
      starts_with(ctx.rel, "tests/") || ctx.rel == "tools/lint/rules.cpp") {
    return;
  }
  for (std::size_t i = 0; i < ctx.src.views.text.size(); ++i) {
    // The include path itself is a string literal — use the text view.
    if (std::regex_search(ctx.src.views.text[i], deep_prob_include)) {
      ctx.add("F008", static_cast<int>(i + 1),
              "internal probability header; include "
              "\"congestion/prob_kernel.hpp\" instead");
    }
  }
}

// D001 — unordered associative containers under src/: libstdc++ does not
// promise an iteration order, so any walk over one can change results
// between toolchains. Ordered containers (or sorted snapshots) keep the
// engine bit-reproducible; a lookup-only hash index can be baselined.
void rule_unordered_containers(FileCtx& ctx) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  if (!starts_with(ctx.rel, "src/")) return;
  const std::vector<Token>& t = ctx.src.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || kUnordered.count(t[i].text) == 0) {
      continue;
    }
    // `<` after the name = a type use; `>` after = the #include <...>
    // header name, which is fine.
    if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "<") continue;
    ctx.add("D001", t[i].line,
            "std::" + t[i].text +
                " in result-affecting code: iteration order is "
                "unspecified; use an ordered container or a sorted "
                "snapshot (or baseline a lookup-only index with a "
                "justification)");
  }
}

// D002 — wall-clock reads under src/ make results depend on when the run
// happened. steady_clock (telemetry durations) is fine; calendar time is
// not.
void rule_wall_clock(FileCtx& ctx) {
  static const std::set<std::string> kWallClock = {
      "system_clock", "gettimeofday", "localtime", "gmtime"};
  if (!starts_with(ctx.rel, "src/")) return;
  const std::vector<Token>& t = ctx.src.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (kWallClock.count(t[i].text) != 0) {
      ctx.add("D002", t[i].line,
              "wall-clock use (" + t[i].text +
                  "): results must not depend on the time of the run; use "
                  "steady_clock for durations and seeded Rng for variation");
      continue;
    }
    if (t[i].text == "time" && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "(" &&
        (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->"))) {
      ctx.add("D002", t[i].line,
              "wall-clock use (time()): results must not depend on the "
              "time of the run; use steady_clock for durations and seeded "
              "Rng for variation");
    }
  }
}

// D003 helper — analyze one lambda passed to a pool dispatch. Returns
// the index of the lambda's closing token (to resume scanning after it).
std::size_t check_task_lambda(FileCtx& ctx, std::size_t open_bracket) {
  const std::vector<Token>& t = ctx.src.tokens;
  // Capture list: [&], [=], [&x, y], init-captures.
  std::size_t close = open_bracket;
  int d = 0;
  for (std::size_t k = open_bracket; k < t.size(); ++k) {
    if (t[k].kind != TokKind::kPunct) continue;
    if (t[k].text == "[") ++d;
    if (t[k].text == "]" && --d == 0) {
      close = k;
      break;
    }
  }
  if (close == open_bracket) return open_bracket;
  std::set<std::string> locals;  // value captures, params, body decls
  std::set<std::string> shared;  // &-captures: one object, many tasks
  bool default_by_value = false;
  for (std::size_t k = open_bracket + 1; k < close; ++k) {
    const Token& tk = t[k];
    if (tk.kind == TokKind::kPunct && tk.text == "=" &&
        (t[k - 1].text == "[" || t[k - 1].text == ",")) {
      default_by_value = true;
    } else if (tk.kind == TokKind::kIdent) {
      if (t[k - 1].kind == TokKind::kPunct && t[k - 1].text == "&") {
        shared.insert(tk.text);
      } else {
        locals.insert(tk.text);  // by-value copy or init-capture name
      }
    }
  }
  // Optional parameter list: names are idents right before , ) or =.
  std::size_t k = close + 1;
  if (k < t.size() && t[k].kind == TokKind::kPunct && t[k].text == "(") {
    int pd = 0;
    for (; k < t.size(); ++k) {
      if (t[k].kind == TokKind::kPunct && t[k].text == "(") ++pd;
      else if (t[k].kind == TokKind::kPunct && t[k].text == ")") {
        if (--pd == 0) {
          ++k;
          break;
        }
      } else if (t[k].kind == TokKind::kIdent && k + 1 < t.size() &&
                 t[k + 1].kind == TokKind::kPunct &&
                 (t[k + 1].text == "," || t[k + 1].text == ")" ||
                  t[k + 1].text == "=")) {
        locals.insert(t[k].text);
      }
    }
  }
  // Body: first '{' (skipping mutable/noexcept/trailing return type).
  while (k < t.size() && t[k].text != "{" && t[k].text != ";") ++k;
  if (k >= t.size() || t[k].text != "{") return close;
  const std::size_t body = k;
  std::size_t end = body;
  int bd = 0;
  for (std::size_t m = body; m < t.size(); ++m) {
    if (t[m].kind != TokKind::kPunct) continue;
    if (t[m].text == "{") ++bd;
    if (t[m].text == "}" && --bd == 0) {
      end = m;
      break;
    }
  }
  static const std::set<std::string> kCompound = {"+=", "-=", "*=", "/="};
  for (std::size_t m = body + 1; m < end; ++m) {
    const Token& tk = t[m];
    if (tk.kind == TokKind::kIdent && m > 0) {
      // Declaration heuristic: `type name`, `type& name`, `auto name`.
      const Token& p = t[m - 1];
      if (p.kind == TokKind::kIdent && p.text != "return") {
        locals.insert(tk.text);
      } else if (p.kind == TokKind::kPunct &&
                 (p.text == "&" || p.text == "*" || p.text == "&&") &&
                 m > 1 && t[m - 2].kind == TokKind::kIdent) {
        locals.insert(tk.text);
      }
      continue;
    }
    if (tk.kind != TokKind::kPunct || kCompound.count(tk.text) == 0) continue;
    const Token& p = t[m - 1];
    // `partial[b] +=` and `(*slot) +=` end in ] or ) — per-slot writes
    // through the ordered-reduction pattern, not shared accumulation.
    if (p.kind != TokKind::kIdent) continue;
    // Walk a member chain (acc.sum, self->total) back to its base.
    std::string target = p.text;
    std::size_t ti = m - 1;
    while (ti >= 2 && t[ti - 1].kind == TokKind::kPunct &&
           (t[ti - 1].text == "." || t[ti - 1].text == "->") &&
           t[ti - 2].kind == TokKind::kIdent) {
      ti -= 2;
      target = t[ti].text;
    }
    const bool qualified = ti >= 1 && t[ti - 1].text == "::";
    if (shared.count(target) == 0) {
      if (locals.count(target) != 0) continue;
      if (default_by_value && !qualified) continue;  // captured copy
    }
    ctx.add("D003", tk.line,
            "compound assignment to \"" + target +
                "\" shared across ThreadPool tasks: float accumulation "
                "order would follow scheduling; reduce into a per-block "
                "slot and combine in block order on the caller");
  }
  return end;
}

// D003 — inside ThreadPool task lambdas, no compound assignment into
// variables shared across tasks. The deterministic fork-join contract
// allows only per-block slots combined in block order by the caller
// (thread_pool.hpp's helpers are the sanctioned implementation).
void rule_pool_accumulation(FileCtx& ctx) {
  if (!starts_with(ctx.rel, "src/") ||
      ctx.rel == "src/util/thread_pool.hpp") {
    return;
  }
  const std::vector<Token>& t = ctx.src.tokens;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "run") continue;
    if (t[i + 1].kind != TokKind::kPunct || t[i + 1].text != "(") continue;
    if (t[i - 1].text != "." && t[i - 1].text != "->") continue;
    // The statement must mention a pool-ish receiver; plain .run() on
    // anything else (e.g. a benchmark runner) is out of scope.
    std::size_t stmt = i;
    while (stmt > 0 &&
           !(t[stmt - 1].kind == TokKind::kPunct &&
             (t[stmt - 1].text == ";" || t[stmt - 1].text == "{" ||
              t[stmt - 1].text == "}"))) {
      --stmt;
    }
    bool poolish = false;
    for (std::size_t m = stmt; m < i && !poolish; ++m) {
      if (t[m].kind != TokKind::kIdent) continue;
      std::string low;
      for (const char c : t[m].text) {
        low.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
      poolish = low.find("pool") != std::string::npos ||
                low.find("inlinescope") != std::string::npos;
    }
    if (!poolish) continue;
    // Walk the argument list; analyze each lambda literal in it.
    int depth = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      if (t[j].text == "(") {
        ++depth;
      } else if (t[j].text == ")") {
        if (--depth == 0) break;
      } else if (t[j].text == "[" && depth >= 1) {
        j = check_task_lambda(ctx, j);
      }
    }
  }
}

/// Parse every quoted string inside the brace block that follows the
/// first occurrence of `array_marker` (e.g. "kCounterNames[]").
std::set<std::string> registry_array(const std::string& text,
                                     const std::string& array_marker) {
  std::set<std::string> names;
  const std::size_t at = text.find(array_marker);
  if (at == std::string::npos) return names;
  const std::size_t open = text.find('{', at);
  const std::size_t close = text.find("};", at);
  if (open == std::string::npos || close == std::string::npos) return names;
  const std::string block = text.substr(open, close - open);
  static const std::regex quoted("\"([^\"]*)\"");
  for (auto it = std::sregex_iterator(block.begin(), block.end(), quoted);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

}  // namespace

FileAnalysis analyze_file(const std::string& rel,
                          const std::string& content) {
  FileAnalysis out;
  const std::vector<std::string> raw = split_lines(content);
  const TokenizedSource src = tokenize(content);
  FileCtx ctx{rel, raw, src, &out};
  extract_includes(ctx);
  rule_env_discipline(ctx);
  rule_trace_names(ctx);
  rule_umbrella_includes(ctx);
  rule_float_equality(ctx);
  rule_rng_discipline(ctx);
  rule_missing_override(ctx);
  rule_svg_emission(ctx);
  rule_probability_internal_headers(ctx);
  rule_unordered_containers(ctx);
  rule_wall_clock(ctx);
  rule_pool_accumulation(ctx);
  return out;
}

std::vector<Finding> aggregate_findings(
    const std::vector<std::pair<std::string, const FileAnalysis*>>& files,
    const std::string& readme, bool schema_exists,
    const std::string& schema_content) {
  std::vector<Finding> findings;

  // F001 — every FICON_* knob read anywhere must be in the README knob
  // table. First reader (in path order) carries the finding.
  std::set<std::string> reported_knobs;
  for (const auto& [rel, fa] : files) {
    for (const KnobRead& k : fa->knobs) {
      if (readme.find(k.knob) != std::string::npos) continue;
      if (!reported_knobs.insert(k.knob).second) continue;
      findings.push_back(
          {"F001", rel, k.line,
           "knob " + k.knob + " is not documented in the README knob table",
           k.knob});
    }
  }

  // F002 — emitted and validated record types must exist in the schema
  // registry.
  if (!schema_exists) {
    findings.push_back({"F002", "src/obs/schema.hpp", 1,
                        "schema registry header is missing", "missing"});
    return findings;
  }
  const std::set<std::string> record_types =
      registry_array(schema_content, "kRecordTypes[]");
  for (const auto& [rel, fa] : files) {
    for (const TraceName& tn : fa->traces) {
      if (record_types.count(tn.name) != 0) continue;
      const std::string what =
          tn.kind == "type" ? "record type" : "validator record type";
      findings.push_back({"F002", rel, tn.line,
                          what + " \"" + tn.name +
                              "\" is not registered in obs/schema.hpp",
                          tn.name});
    }
  }
  return findings;
}

}  // namespace ficon::lint
