// ficon_lint v2 rules — per-file analysis plus cross-file aggregation.
//
// analyze_file() runs every rule that depends only on one file's content:
// the F-series convention rules over the tokenizer's code/text views and
// the token-level D-series determinism rules. Checks that need global
// state are *extracted* per file and *decided* at aggregation time:
//
//   * F001 knob documentation — knob reads are collected per file and
//     checked against the README at aggregation;
//   * F002 schema membership — the record types the trace writer emits
//     and the validator declares are collected per file and checked
//     against src/obs/schema.hpp at aggregation;
//   * quoted includes — collected per file, resolved and layer-checked
//     (L001/L002) by the include-graph module.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/report.hpp"

namespace ficon::lint {

struct KnobRead {
  std::string knob;  // e.g. "FICON_THREADS"
  int line = 0;
};

struct TraceName {
  std::string kind;  // "type" (emitted) | "schema_row" (validator)
  std::string name;
  int line = 0;
};

/// Everything the analyzer learns from one file.
struct FileAnalysis {
  std::vector<Finding> findings;      // per-file rule findings
  std::vector<KnobRead> knobs;        // env_*("FICON_...") reads
  std::vector<TraceName> traces;      // record types named in src/obs/
  std::vector<IncludeRef> includes;   // quoted #include directives
};

/// Run all per-file rules. `rel` is the repo-relative path ('/'-separated)
/// that scoping decisions key on.
FileAnalysis analyze_file(const std::string& rel, const std::string& content);

/// Cross-file checks (F001 knob table, F002 schema registry). `files`
/// must be sorted by path so the first-reader-wins knob dedup is stable.
std::vector<Finding> aggregate_findings(
    const std::vector<std::pair<std::string, const FileAnalysis*>>& files,
    const std::string& readme, bool schema_exists,
    const std::string& schema_content);

}  // namespace ficon::lint
