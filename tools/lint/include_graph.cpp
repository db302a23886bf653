#include "lint/include_graph.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <sstream>

namespace fs = std::filesystem;

namespace ficon::lint {
namespace {

/// The src/<module>/ directory a repo file belongs to, or "" for files
/// outside src/ or directly at its top level (the umbrella header).
std::string module_of(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

}  // namespace

std::optional<std::string> resolve_include(const std::string& from_rel,
                                           const std::string& include,
                                           const std::set<std::string>& known) {
  const auto try_rel = [&](const fs::path& candidate)
      -> std::optional<std::string> {
    const std::string rel = candidate.lexically_normal().generic_string();
    if (known.count(rel) != 0) return rel;
    return std::nullopt;
  };
  // 1. Relative to the including file's directory.
  const fs::path from_dir = fs::path(from_rel).parent_path();
  if (auto hit = try_rel(from_dir / include); hit.has_value()) return hit;
  // 2. src/, the one include directory of every library TU.
  return try_rel(fs::path("src") / include);
}

std::optional<std::vector<LayerGroup>> parse_layers(const std::string& text,
                                                    std::string* error) {
  std::vector<LayerGroup> groups;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const std::size_t hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string name;
    if (!(ls >> name)) continue;  // blank line
    if (name.back() != ':') {
      *error = ".ficon-layers:" + std::to_string(lineno) +
               ": expected \"group:\" at line start";
      return std::nullopt;
    }
    name.pop_back();
    LayerGroup g;
    g.name = name;
    bool in_deps = false;
    std::string word;
    while (ls >> word) {
      if (word == "->") {
        in_deps = true;
        continue;
      }
      (in_deps ? g.deps : g.members).push_back(word);
    }
    if (g.members.empty()) {
      *error = ".ficon-layers:" + std::to_string(lineno) + ": group \"" +
               g.name + "\" has no member modules";
      return std::nullopt;
    }
    groups.push_back(std::move(g));
  }
  // Validate: unique group names, unique members, deps name real groups.
  std::set<std::string> names, members;
  for (const LayerGroup& g : groups) {
    if (!names.insert(g.name).second) {
      *error = ".ficon-layers: duplicate group \"" + g.name + "\"";
      return std::nullopt;
    }
    for (const std::string& m : g.members) {
      if (!members.insert(m).second) {
        *error = ".ficon-layers: module \"" + m +
                 "\" appears in more than one group";
        return std::nullopt;
      }
    }
  }
  for (const LayerGroup& g : groups) {
    for (const std::string& d : g.deps) {
      if (names.count(d) == 0) {
        *error = ".ficon-layers: group \"" + g.name +
                 "\" depends on unknown group \"" + d + "\"";
        return std::nullopt;
      }
      if (d == g.name) {
        *error = ".ficon-layers: group \"" + g.name + "\" depends on itself";
        return std::nullopt;
      }
    }
  }
  return groups;
}

namespace {

/// DFS cycle search over a string-keyed adjacency map. Returns the first
/// cycle found (in deterministic, sorted order), empty if acyclic.
std::vector<std::string> find_cycle(
    const std::map<std::string, std::vector<std::string>>& adj) {
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack, cycle;
  const std::function<bool(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        const auto it = adj.find(node);
        if (it != adj.end()) {
          for (const std::string& next : it->second) {
            const int c = color[next];
            if (c == 1) {
              const auto at =
                  std::find(stack.begin(), stack.end(), next);
              cycle.assign(at, stack.end());
              return true;
            }
            if (c == 0 && dfs(next)) return true;
          }
        }
        stack.pop_back();
        color[node] = 2;
        return false;
      };
  for (const auto& [node, targets] : adj) {
    if (color[node] == 0 && dfs(node)) break;
  }
  if (!cycle.empty()) {
    // Rotate so the smallest element leads: stable across start order.
    const auto min =
        std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), min, cycle.end());
  }
  return cycle;
}

std::string join_cycle(const std::vector<std::string>& cycle) {
  std::string out;
  for (const std::string& n : cycle) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  out += " -> " + cycle.front();
  return out;
}

}  // namespace

std::vector<Finding> layering_findings(
    const std::map<std::string, std::vector<std::pair<std::string, int>>>&
        includes,
    const std::vector<LayerGroup>& groups) {
  std::vector<Finding> findings;
  std::map<std::string, const LayerGroup*> group_of;  // module dir -> group
  for (const LayerGroup& g : groups) {
    for (const std::string& m : g.members) group_of[m] = &g;
  }

  // L001 — every cross-module edge must be sanctioned by the manifest.
  std::set<std::string> reported;  // "file\ttoken" dedup
  const auto report = [&](const std::string& file, int line,
                          const std::string& message,
                          const std::string& token) {
    if (!reported.insert(file + "\t" + token).second) return;
    findings.push_back({"L001", file, line, message, token});
  };
  for (const auto& [file, targets] : includes) {
    const std::string mod = module_of(file);
    if (mod.empty()) continue;
    const auto from_it = group_of.find(mod);
    if (from_it == group_of.end()) {
      report(file, 1,
             "module \"" + mod + "\" is not declared in .ficon-layers",
             "unmapped:" + mod);
      continue;
    }
    for (const auto& [target, line] : targets) {
      const std::string tmod = module_of(target);
      if (tmod.empty() || tmod == mod) continue;
      const auto to_it = group_of.find(tmod);
      if (to_it == group_of.end()) {
        report(file, line,
               "module \"" + tmod + "\" is not declared in .ficon-layers",
               "unmapped:" + tmod);
        continue;
      }
      const LayerGroup* from = from_it->second;
      const LayerGroup* to = to_it->second;
      if (from == to) continue;  // intra-group edges are free
      if (std::find(from->deps.begin(), from->deps.end(), to->name) !=
          from->deps.end()) {
        continue;
      }
      report(file, line,
             "include of " + target + " crosses layers: group \"" +
                 from->name + "\" does not declare a dep on \"" + to->name +
                 "\" in .ficon-layers",
             from->name + "->" + to->name);
    }
  }

  // L002 — the declared group DAG must actually be a DAG.
  std::map<std::string, std::vector<std::string>> group_adj;
  for (const LayerGroup& g : groups) group_adj[g.name] = g.deps;
  if (const std::vector<std::string> cycle = find_cycle(group_adj);
      !cycle.empty()) {
    findings.push_back({"L002", ".ficon-layers", 1,
                        "declared group dependencies form a cycle: " +
                            join_cycle(cycle),
                        "groups:" + join_cycle(cycle)});
  }

  // L002 — file-level include cycles in src/.
  std::map<std::string, std::vector<std::string>> file_adj;
  for (const auto& [file, targets] : includes) {
    if (module_of(file).empty() && file.rfind("src/", 0) != 0) continue;
    std::vector<std::string>& out = file_adj[file];
    for (const auto& [target, line] : targets) out.push_back(target);
  }
  if (const std::vector<std::string> cycle = find_cycle(file_adj);
      !cycle.empty()) {
    findings.push_back({"L002", cycle.front(), 1,
                        "include cycle: " + join_cycle(cycle),
                        "cycle:" + join_cycle(cycle)});
  }
  return findings;
}

}  // namespace ficon::lint
