// ficon_lint v2 reporting — findings, the suppression baseline, text
// output, and the SARIF 2.1.0 writer.
//
// The baseline file format is unchanged from v1
// (.ficon-lint-baseline.json): a "suppressions" array of
// {rule, file, token, reason} entries, every reason non-empty and not
// starting with "UNREVIEWED". --update-baseline rewrites the file from
// the current findings and preserves reasons for entries that persist.
//
// SARIF output targets GitHub code scanning: one run, driver
// "ficon_lint", a rules array from the registry, one result per finding
// with a repo-relative artifact URI. Baselined findings are emitted with
// an external suppression carrying the baseline reason, so the upload
// shows them as suppressed instead of open.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace ficon::lint {

struct Finding {
  std::string rule;     // "F001".."F008", "D001".."D003", "L001"/"L002"
  std::string file;     // repo-relative path
  int line = 0;         // 1-based
  std::string message;
  std::string token;    // baseline-matching key (knob name or line text)
};

struct Suppression {
  std::string rule;
  std::string file;
  std::string token;
  std::string reason;
  mutable bool used = false;
};

struct RuleInfo {
  const char* id;
  const char* summary;  // one-line description for --list-rules and SARIF
};

/// Every rule the analyzer knows, in report order.
const std::vector<RuleInfo>& rule_registry();

/// Stable finding order: (rule, file, line).
void sort_findings(std::vector<Finding>& findings);

/// Collapse runs of whitespace to single spaces (the default token).
std::string collapse_whitespace(const std::string& s);

/// Load the baseline; a missing file is an empty baseline. Returns
/// nullopt and fills `error` on parse problems.
std::optional<std::vector<Suppression>> load_baseline(
    const std::filesystem::path& path, std::string* error);

/// Rewrite the baseline from `findings`, keeping reasons from `old`.
void write_baseline(const std::filesystem::path& path,
                    const std::vector<Finding>& findings,
                    const std::vector<Suppression>& old);

/// Find the baseline entry matching a finding, or nullptr.
const Suppression* match_suppression(
    const std::vector<Suppression>& suppressions, const Finding& f);

/// Write a SARIF 2.1.0 log of every finding. `suppressions` supplies the
/// justification for baselined results. Returns false on I/O failure.
bool write_sarif(const std::filesystem::path& path,
                 const std::filesystem::path& repo,
                 const std::vector<Finding>& findings,
                 const std::vector<Suppression>& suppressions);

}  // namespace ficon::lint
