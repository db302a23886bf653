#include "lint/report.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"

namespace fs = std::filesystem;

namespace ficon::lint {

using obs::json_escape;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"F001",
       "env discipline: no raw getenv(); FICON_* knobs documented in "
       "README"},
      {"F002", "trace record types registered in src/obs/schema.hpp"},
      {"F003",
       "examples/, bench/ and tools/ include \"ficon.hpp\" only (tools may "
       "also use \"obs/json.hpp\")"},
      {"F004", "no floating-point ==/!= against float literals"},
      {"F005", "no raw RNG primitives outside util/rng.hpp"},
      {"F006", "derived-class virtual members must say override"},
      {"F007",
       "SVG emission goes through src/exp/ (HeatMapSource/write_svg)"},
      {"F008",
       "congestion/path_prob.hpp and congestion/approx.hpp are internal "
       "outside src/congestion/ and tests/ (use congestion/prob_kernel.hpp)"},
      {"D001",
       "no std::unordered_{map,set} in result-affecting src/ code: "
       "iteration order is unspecified across libstdc++ versions"},
      {"D002",
       "no wall-clock (system_clock, time(), localtime) in src/ result "
       "paths; steady_clock is fine for telemetry"},
      {"D003",
       "no compound assignment to shared variables inside ThreadPool task "
       "lambdas; reduce per block and combine in block order"},
      {"L001",
       "include edge crosses module groups without a matching dep in "
       ".ficon-layers"},
      {"L002", "include graph and .ficon-layers dep graph must be acyclic"},
  };
  return kRules;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.rule, a.file, a.line, a.token) <
                     std::tie(b.rule, b.file, b.line, b.token);
            });
}

std::string collapse_whitespace(const std::string& s) {
  std::string out;
  bool in_space = true;
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::optional<std::vector<Suppression>> load_baseline(const fs::path& path,
                                                     std::string* error) {
  std::vector<Suppression> suppressions;
  if (!fs::exists(path)) return suppressions;  // empty baseline is fine
  const std::string text = read_file(path);
  std::string parse_error;
  const auto value = ficon::obs::parse_json(text, &parse_error);
  if (!value.has_value() || !value->is_object()) {
    *error = path.string() + ": " + parse_error;
    return std::nullopt;
  }
  const ficon::obs::JsonValue* list = value->find("suppressions");
  if (list == nullptr || list->type != ficon::obs::JsonValue::Type::kArray) {
    *error = path.string() + ": missing \"suppressions\" array";
    return std::nullopt;
  }
  for (const ficon::obs::JsonValue& entry : list->array) {
    Suppression s;
    for (const auto& [key, member] :
         std::initializer_list<std::pair<const char*, std::string*>>{
             {"rule", &s.rule},
             {"file", &s.file},
             {"token", &s.token},
             {"reason", &s.reason}}) {
      const ficon::obs::JsonValue* v = entry.find(key);
      if (v == nullptr || !v->is_string()) {
        *error = path.string() + ": suppression lacks string \"" +
                 std::string(key) + "\"";
        return std::nullopt;
      }
      *member = v->string;
    }
    suppressions.push_back(std::move(s));
  }
  return suppressions;
}

void write_baseline(const fs::path& path, const std::vector<Finding>& findings,
                    const std::vector<Suppression>& old) {
  std::ofstream out(path);
  out << "{\n  \"suppressions\": [";
  bool first = true;
  for (const Finding& f : findings) {
    std::string reason = "UNREVIEWED: justify or fix";
    for (const Suppression& s : old) {
      if (s.rule == f.rule && s.file == f.file && s.token == f.token) {
        reason = s.reason;
        break;
      }
    }
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"rule\": \"" << f.rule << "\", \"file\": \""
        << json_escape(f.file) << "\",\n     \"token\": \""
        << json_escape(f.token) << "\",\n     \"reason\": \""
        << json_escape(reason) << "\"}";
  }
  out << "\n  ]\n}\n";
}

const Suppression* match_suppression(
    const std::vector<Suppression>& suppressions, const Finding& f) {
  for (const Suppression& s : suppressions) {
    if (s.rule == f.rule && s.file == f.file && s.token == f.token) {
      return &s;
    }
  }
  return nullptr;
}

bool write_sarif(const fs::path& path, const fs::path& repo,
                 const std::vector<Finding>& findings,
                 const std::vector<Suppression>& suppressions) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"ficon_lint\",\n"
      << "          \"version\": \"2.0.0\",\n"
      << "          \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n"
      << "          \"rules\": [\n";
  bool first = true;
  for (const RuleInfo& r : rule_registry()) {
    out << (first ? "" : ",\n");
    first = false;
    out << "            {\"id\": \"" << r.id
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(r.summary)
        << "\"}}";
  }
  out << "\n          ]\n        }\n      },\n"
      << "      \"originalUriBaseIds\": {\n"
      << "        \"SRCROOT\": {\"uri\": \"file://"
      << json_escape(fs::absolute(repo).generic_string()) << "/\"}\n"
      << "      },\n"
      << "      \"results\": [\n";
  first = true;
  for (const Finding& f : findings) {
    const Suppression* s = match_suppression(suppressions, f);
    const bool suppressed = s != nullptr && !s->reason.empty() &&
                            s->reason.rfind("UNREVIEWED", 0) != 0;
    out << (first ? "" : ",\n");
    first = false;
    out << "        {\n          \"ruleId\": \"" << f.rule << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << json_escape(f.message)
        << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << json_escape(f.file)
        << "\", \"uriBaseId\": \"SRCROOT\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}]";
    if (suppressed) {
      out << ",\n          \"suppressions\": [{\"kind\": \"external\", "
             "\"justification\": \""
          << json_escape(s->reason) << "\"}]";
    }
    out << "\n        }";
  }
  out << "\n      ]\n    }\n  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace ficon::lint
