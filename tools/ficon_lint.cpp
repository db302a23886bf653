// ficon_lint — project-specific static analysis for the FICON tree.
//
// The congestion model's correctness rests on conventions the compiler
// cannot check: env knobs must be documented, trace names must be
// registered, public consumers must stay behind the umbrella header,
// floating-point equality is forbidden near the numeric core, RNG use
// must flow through the per-seed streams, results must not depend on
// hash-table iteration order or the wall clock, and the module layering
// must match the declared DAG. This tool turns those conventions into
// machine-checked rules with stable IDs (run --list-rules, or see
// docs/STATIC_ANALYSIS.md for the full table):
//
//   F001-F008  convention rules carried over from v1
//   D001-D003  determinism rules (containers, clocks, pool reductions)
//   L001-L002  layering rules against the .ficon-layers module DAG
//
// v2 replaced the line-regex scanner core with tools/lint/: a
// comment/string-aware tokenizer builds the code/text views and the
// token stream the D-rules walk, and quoted includes are resolved
// against the including file's directory and src/ for the layering
// checks. Every run analyzes every file.
//
// Findings can be suppressed through a committed baseline
// (.ficon-lint-baseline.json). Every baseline entry must carry a
// non-empty "reason"; --update-baseline rewrites the file from the
// current findings, preserving reasons for entries that persist.
//
// Flags beyond the v1 set:
//   --sarif PATH  write a SARIF 2.1.0 log of every finding (baselined
//                 ones carry suppressions)
//
// Exit codes: 0 clean (all findings baselined), 1 findings, 2 usage or
// I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/report.hpp"
#include "lint/rules.hpp"

namespace fs = std::filesystem;
using namespace ficon::lint;

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void list_rules() {
  for (const RuleInfo& r : rule_registry()) {
    std::cout << r.id << "  " << r.summary << "\n";
  }
}

int usage() {
  std::cerr << "usage: ficon_lint [--repo DIR] [--baseline FILE] "
               "[--update-baseline] [--list-rules]\n"
               "                  [--sarif FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path repo = fs::current_path();
  std::optional<fs::path> baseline_path, sarif_path;
  bool update_baseline = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repo" && i + 1 < argc) {
      repo = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = fs::path(argv[++i]);
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = fs::path(argv[++i]);
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--list-rules") {
      list_rules();
      return 0;
    } else {
      return usage();
    }
  }
  if (!fs::exists(repo)) {
    std::cerr << "ficon_lint: no such directory: " << repo.string() << "\n";
    return 2;
  }
  if (!baseline_path.has_value()) {
    baseline_path = repo / ".ficon-lint-baseline.json";
  }

  // Gather sources.
  struct Source {
    std::string rel;
    std::string content;
  };
  std::vector<Source> sources;
  static const char* kTopDirs[] = {"src",   "tools", "examples",
                                   "bench", "tests", "fuzz"};
  for (const char* dir : kTopDirs) {
    const fs::path root = repo / dir;
    if (!fs::exists(root)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp") continue;
      sources.push_back({fs::relative(entry.path(), repo).generic_string(),
                         read_file(entry.path())});
    }
  }
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) { return a.rel < b.rel; });
  if (sources.empty()) {
    std::cerr << "ficon_lint: no sources found under " << repo.string()
              << "\n";
    return 2;
  }

  // Per-file analysis, then the global F-rule halves over the per-file
  // extractions.
  std::vector<FileAnalysis> analyses;
  analyses.reserve(sources.size());
  for (const Source& s : sources) {
    analyses.push_back(analyze_file(s.rel, s.content));
  }
  std::vector<Finding> findings;
  std::vector<std::pair<std::string, const FileAnalysis*>> ordered;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const FileAnalysis& fa = analyses[i];
    ordered.emplace_back(sources[i].rel, &fa);
    findings.insert(findings.end(), fa.findings.begin(), fa.findings.end());
  }
  const fs::path schema_path = repo / "src" / "obs" / "schema.hpp";
  const bool schema_exists = fs::exists(schema_path);
  const std::vector<Finding> global = aggregate_findings(
      ordered, read_file(repo / "README.md"), schema_exists,
      schema_exists ? read_file(schema_path) : std::string());
  findings.insert(findings.end(), global.begin(), global.end());

  // Layering: resolve the include graph, check it against .ficon-layers.
  std::string error;
  const fs::path layers_path = repo / ".ficon-layers";
  if (fs::exists(layers_path)) {
    const auto groups = parse_layers(read_file(layers_path), &error);
    if (!groups.has_value()) {
      std::cerr << "ficon_lint: " << error << "\n";
      return 2;
    }
    std::set<std::string> known;
    for (const Source& s : sources) known.insert(s.rel);
    std::map<std::string, std::vector<std::pair<std::string, int>>> resolved;
    for (const auto& [rel, fa] : ordered) {
      if (rel.rfind("src/", 0) != 0) continue;
      auto& edges = resolved[rel];
      for (const IncludeRef& inc : fa->includes) {
        const auto target = resolve_include(rel, inc.path, known);
        if (target.has_value() && *target != rel) {
          edges.emplace_back(*target, inc.line);
        }
      }
    }
    const std::vector<Finding> layer =
        layering_findings(resolved, *groups);
    findings.insert(findings.end(), layer.begin(), layer.end());
  }

  sort_findings(findings);

  const auto suppressions = load_baseline(*baseline_path, &error);
  if (!suppressions.has_value()) {
    std::cerr << "ficon_lint: " << error << "\n";
    return 2;
  }

  if (update_baseline) {
    write_baseline(*baseline_path, findings, *suppressions);
    std::cout << "ficon_lint: wrote " << findings.size()
              << " suppression(s) to " << baseline_path->string() << "\n";
    return 0;
  }

  if (sarif_path.has_value() &&
      !write_sarif(*sarif_path, repo, findings, *suppressions)) {
    std::cerr << "ficon_lint: cannot write SARIF log "
              << sarif_path->string() << "\n";
    return 2;
  }

  int reported = 0;
  for (const Finding& f : findings) {
    const Suppression* match = match_suppression(*suppressions, f);
    if (match != nullptr && !match->reason.empty() &&
        match->reason.rfind("UNREVIEWED", 0) != 0) {
      match->used = true;
      continue;
    }
    std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
              << f.message;
    if (match != nullptr) std::cout << " [baselined without justification]";
    std::cout << "\n";
    ++reported;
  }
  for (const Suppression& s : *suppressions) {
    if (!s.used) {
      std::cout << "note: stale baseline entry " << s.rule << " in "
                << s.file << " (" << s.token << ")\n";
    }
  }
  if (reported > 0) {
    std::cout << "ficon_lint: " << reported << " finding(s)\n";
    return 1;
  }
  std::cout << "ficon_lint: clean (" << findings.size()
            << " baselined suppression(s))\n";
  return 0;
}
