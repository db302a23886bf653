// ficon_lint v2 include graph & layering — per-TU include extraction,
// checked against the declared module DAG in .ficon-layers.
//
// Resolution mirrors the build: a quoted include is looked up relative
// to the including file's directory first, then under src/, the one
// include directory of every library TU. Only includes that land on a
// scanned repo file become graph edges; system headers are ignored.
//
// The layering manifest groups src/ modules:
//
//   # group: member-dirs -> allowed-dep-groups
//   base: geom obs util
//   route: route -> base circuit
//
// Edges inside a group are free (util and obs are mutually dependent by
// design); an edge from group A to group B must appear in A's dep list
// (L001). The group dep graph itself and the file-level include graph
// must both be acyclic (L002).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "lint/report.hpp"

namespace ficon::lint {

/// One quoted #include directive, as written.
struct IncludeRef {
  std::string path;  // the string between the quotes
  int line = 0;      // 1-based
};

/// Resolve a quoted include from `from_rel` to a repo-relative path in
/// `known_files`, or nullopt for external/system headers.
std::optional<std::string> resolve_include(
    const std::string& from_rel, const std::string& include,
    const std::set<std::string>& known_files);

struct LayerGroup {
  std::string name;
  std::vector<std::string> members;  // src/ module directory names
  std::vector<std::string> deps;     // allowed dep group names
};

/// Parse the .ficon-layers manifest text. Returns nullopt and fills
/// `error` on malformed lines, duplicate members, or unknown dep names.
std::optional<std::vector<LayerGroup>> parse_layers(const std::string& text,
                                                    std::string* error);

/// Run the layering rules over the resolved src/ include graph.
/// `includes` maps repo-relative file -> resolved repo-relative targets
/// (with the line of the directive). Produces L001 and L002 findings.
std::vector<Finding> layering_findings(
    const std::map<std::string, std::vector<std::pair<std::string, int>>>&
        includes,
    const std::vector<LayerGroup>& groups);

}  // namespace ficon::lint
