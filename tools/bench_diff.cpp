// bench_diff — field-by-field comparison of two ficon-bench-v1 reports.
//
// The perf-regression gate: compares a freshly emitted BENCH_*.json
// against a committed baseline (bench/baselines/) and fails when a
// metric moved the wrong way by more than its threshold. Semantics:
//
//  * Reports must both be ficon-bench-v1 (see docs/BENCHMARKS.md) and
//    agree on the "bench" name; rows are matched by index and the row
//    counts must match.
//  * String values are identity fields (fingerprint, tier, circuit):
//    any mismatch is a violation regardless of thresholds.
//  * Null values (non-finite measurements) are skipped.
//  * Numeric values compare by relative delta against a per-metric
//    threshold (default --threshold, overridable with --metric key=T).
//    Direction is inferred from the key: `*_per_s` / `*_speedup` are
//    higher-better, `*_ms` / `*_mib` / `*_ns` / `*_bytes` / `seconds`
//    are lower-better, everything else is an identity metric that may
//    not drift in either direction (e.g. checksum, batch).
//  * A key present in one report but not the other is a violation
//    (schema drift) unless filtered out.
//  * The optional "manifest" member (machine provenance) is reported
//    but never compared — baselines are expected to come from a
//    different machine.
//
// `--lint FILE...` checks the structure of each report instead of
// comparing two: `bench` is a non-empty string, `meta` (and `manifest`,
// when present) an object, `rows` a non-empty array of objects, and
// every value a number, string or null. Rows must agree on their key set
// — a row that silently drops a metric is how trend dashboards rot. With
// --require, every row must carry each key.
//
// Usage:
//   bench_diff [options] BASELINE CURRENT
//   bench_diff --lint [--require key[,key]] FILE...
//     --threshold F      default relative threshold (default 0.10)
//     --metric key=F     per-metric threshold override (repeatable)
//     --only key[,key]   compare only these metrics
//     --skip key[,key]   never compare these metrics
//     --require key[,key]  keys that must be present (meta or every row)
//                        in both reports; with --lint, in every row
//
// Exit codes follow the project lint convention: 0 clean, 1 regression
// or schema violation, 2 unreadable/unparsable input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

using ficon::obs::JsonValue;

struct Options {
  double threshold = 0.10;
  std::map<std::string, double> metric_thresholds;
  std::vector<std::string> only;
  std::vector<std::string> skip;
  std::vector<std::string> require;
};

enum class Direction { kHigherBetter, kLowerBetter, kIdentity };

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Direction direction_of(const std::string& key) {
  if (ends_with(key, "_per_s") || ends_with(key, "_speedup")) {
    return Direction::kHigherBetter;
  }
  if (ends_with(key, "_ms") || ends_with(key, "_mib") ||
      ends_with(key, "_ns") || ends_with(key, "_bytes") ||
      key == "seconds") {
    return Direction::kLowerBetter;
  }
  return Direction::kIdentity;
}

bool contains(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

bool compared(const Options& options, const std::string& key) {
  if (contains(options.skip, key)) return false;
  return options.only.empty() || contains(options.only, key);
}

std::string fmt_pct(double r) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%+.2f%%", 100.0 * r);
  return buffer;
}

struct Diff {
  int rc = 0;
  long long metrics = 0;
  long long regressions = 0;

  void fail(const std::string& message) {
    std::cerr << "bench_diff: " << message << "\n";
    rc = std::max(rc, 1);
  }
};

/// Compare one (baseline, current) scalar pair under the key's
/// direction and threshold.
void compare_value(Diff& diff, const Options& options,
                   const std::string& where, const std::string& key,
                   const JsonValue& base, const JsonValue& cur) {
  if (base.type != cur.type) {
    diff.fail(where + "." + key + ": type changed");
    return;
  }
  if (base.type == JsonValue::Type::kNull) {
    return;  // non-finite measurement, nothing to hold
  }
  ++diff.metrics;
  if (base.is_string()) {
    if (base.string != cur.string) {
      ++diff.regressions;
      diff.fail(where + "." + key + ": \"" + base.string + "\" -> \"" +
                cur.string + "\" (identity field changed)");
    }
    return;
  }
  const double denom = std::max(std::abs(base.number),
                                std::abs(cur.number));
  if (denom <= 0.0) return;  // both zero
  const double r = (cur.number - base.number) / denom;
  const auto it = options.metric_thresholds.find(key);
  const double threshold =
      it != options.metric_thresholds.end() ? it->second
                                            : options.threshold;
  const Direction direction = direction_of(key);
  const bool regressed =
      (direction == Direction::kHigherBetter && r < -threshold) ||
      (direction == Direction::kLowerBetter && r > threshold) ||
      (direction == Direction::kIdentity && std::abs(r) > threshold);
  if (regressed) {
    ++diff.regressions;
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%s.%s: %.17g -> %.17g (%s, threshold %.2f%%)",
                  where.c_str(), key.c_str(), base.number, cur.number,
                  fmt_pct(r).c_str(), 100.0 * threshold);
    diff.fail(buffer);
  }
}

/// Compare two scalar objects (meta, or one row) key by key.
void compare_object(Diff& diff, const Options& options,
                    const std::string& where, const JsonValue& base,
                    const JsonValue& cur) {
  for (const auto& [key, base_value] : base.object) {
    if (!compared(options, key)) continue;
    const JsonValue* cur_value = cur.find(key);
    if (cur_value == nullptr) {
      diff.fail(where + "." + key + ": dropped from current report");
      continue;
    }
    compare_value(diff, options, where, key, base_value, *cur_value);
  }
  for (const auto& [key, cur_value] : cur.object) {
    if (!compared(options, key)) continue;
    if (base.find(key) == nullptr) {
      diff.fail(where + "." + key + ": not in baseline report");
    }
  }
}

std::optional<JsonValue> load_report(const std::string& path, int& rc) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "bench_diff: " << path << ": cannot open\n";
    rc = 2;
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  std::string error;
  auto doc = ficon::obs::parse_json(buffer.str(), &error);
  if (!doc) {
    std::cerr << "bench_diff: " << path << ": not JSON: " << error << "\n";
    rc = 2;
    return std::nullopt;
  }
  if (!doc->is_object()) {
    std::cerr << "bench_diff: " << path << ": top level must be an object\n";
    rc = std::max(rc, 1);
    return std::nullopt;
  }
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "ficon-bench-v1") {
    std::cerr << "bench_diff: " << path << ": not a ficon-bench-v1 report\n";
    rc = std::max(rc, 1);
    return std::nullopt;
  }
  return doc;
}

/// --require: the key must appear in meta or in every row.
bool has_required_key(const JsonValue& report, const std::string& key) {
  const JsonValue* meta = report.find("meta");
  if (meta != nullptr && meta->is_object() && meta->find(key) != nullptr) {
    return true;
  }
  const JsonValue* rows = report.find("rows");
  if (rows == nullptr || rows->type != JsonValue::Type::kArray ||
      rows->array.empty()) {
    return false;
  }
  for (const JsonValue& row : rows->array) {
    if (!row.is_object() || row.find(key) == nullptr) return false;
  }
  return true;
}

void check_scalars(Diff& diff, const std::string& where,
                   const JsonValue& object) {
  for (const auto& [key, value] : object.object) {
    if (value.type != JsonValue::Type::kNumber &&
        value.type != JsonValue::Type::kString &&
        value.type != JsonValue::Type::kNull) {
      diff.fail(where + ": key \"" + key +
                "\" must be a number, string, or null");
    }
  }
}

/// --lint: the structural checks of one report (see the file comment).
int lint_report(const std::string& path, const Options& options) {
  int rc = 0;
  const auto doc = load_report(path, rc);
  if (!doc) return rc;
  Diff diff;
  const JsonValue* bench = doc->find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string.empty()) {
    diff.fail(path + ": \"bench\" must be a non-empty string");
  }
  const JsonValue* meta = doc->find("meta");
  if (meta == nullptr || !meta->is_object()) {
    diff.fail(path + ": \"meta\" must be an object");
  } else {
    check_scalars(diff, path + ": meta", *meta);
  }
  const JsonValue* manifest = doc->find("manifest");
  if (manifest != nullptr) {
    if (manifest->is_object()) {
      check_scalars(diff, path + ": manifest", *manifest);
    } else {
      diff.fail(path + ": \"manifest\" must be an object when present");
    }
  }
  const JsonValue* rows = doc->find("rows");
  if (rows == nullptr || rows->type != JsonValue::Type::kArray) {
    diff.fail(path + ": \"rows\" must be an array");
    return diff.rc;
  }
  if (rows->array.empty()) diff.fail(path + ": \"rows\" must not be empty");

  std::vector<std::string> row0_keys;
  for (std::size_t i = 0; i < rows->array.size(); ++i) {
    const JsonValue& row = rows->array[i];
    const std::string where = path + ": rows[" + std::to_string(i) + "]";
    if (!row.is_object()) {
      diff.fail(where + " must be an object");
      continue;
    }
    check_scalars(diff, where, row);
    std::vector<std::string> keys;
    for (const auto& [key, value] : row.object) keys.push_back(key);
    if (i == 0) {
      row0_keys = keys;
    } else if (keys != row0_keys) {
      diff.fail(where +
                " key set differs from rows[0] (every row must report the "
                "same metrics)");
    }
    for (const std::string& key : options.require) {
      if (row.find(key) == nullptr) {
        diff.fail(where + " missing required key \"" + key + "\"");
      }
    }
  }
  return diff.rc;
}

void append_keys(std::vector<std::string>& out, const std::string& csv) {
  std::istringstream keys(csv);
  std::string key;
  while (std::getline(keys, key, ',')) {
    if (!key.empty()) out.push_back(key);
  }
}

[[noreturn]] void usage(int rc) {
  (rc == 0 ? std::cout : std::cerr)
      << "usage: bench_diff [--threshold F] [--metric key=F]...\n"
         "                  [--only key[,key]] [--skip key[,key]]\n"
         "                  [--require key[,key]] BASELINE CURRENT\n"
         "       bench_diff --lint [--require key[,key]] FILE...\n";
  std::exit(rc);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool lint = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--lint") {
      lint = true;
    } else if (arg == "--threshold" && i + 1 < argc) {
      options.threshold = std::stod(argv[++i]);
    } else if (arg == "--metric" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) usage(2);
      options.metric_thresholds[spec.substr(0, eq)] =
          std::stod(spec.substr(eq + 1));
    } else if (arg == "--only" && i + 1 < argc) {
      append_keys(options.only, argv[++i]);
    } else if (arg == "--skip" && i + 1 < argc) {
      append_keys(options.skip, argv[++i]);
    } else if (arg == "--require" && i + 1 < argc) {
      append_keys(options.require, argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      usage(2);
    } else {
      paths.push_back(arg);
    }
  }
  if (lint) {
    if (paths.empty()) usage(2);
    int rc = 0;
    for (const std::string& path : paths) {
      rc = std::max(rc, lint_report(path, options));
    }
    if (rc == 0) {
      std::cout << "bench_diff: " << paths.size() << " file(s) clean\n";
    }
    return rc;
  }
  if (paths.size() != 2) usage(2);

  int rc = 0;
  const auto baseline = load_report(paths[0], rc);
  const auto current = load_report(paths[1], rc);
  if (!baseline || !current) return rc;

  Diff diff;
  const JsonValue* base_bench = baseline->find("bench");
  const JsonValue* cur_bench = current->find("bench");
  if (base_bench == nullptr || cur_bench == nullptr ||
      !base_bench->is_string() || !cur_bench->is_string() ||
      base_bench->string != cur_bench->string) {
    // Keep going: the metric comparison below still surfaces every other
    // problem in one run instead of stopping at the first.
    diff.fail("reports disagree on the \"bench\" name");
  }
  for (const std::string& key : options.require) {
    if (!has_required_key(*baseline, key)) {
      diff.fail(paths[0] + ": required key \"" + key + "\" missing");
    }
    if (!has_required_key(*current, key)) {
      diff.fail(paths[1] + ": required key \"" + key + "\" missing");
    }
  }
  for (const auto* report : {&*baseline, &*current}) {
    const JsonValue* manifest = report->find("manifest");
    if (manifest != nullptr && manifest->is_object()) {
      std::cout << "bench_diff: manifest"
                << (report == &*baseline ? " (baseline):" : " (current):");
      for (const auto& [key, value] : manifest->object) {
        std::cout << ' ' << key << '=';
        if (value.is_string()) {
          std::cout << value.string;
        } else if (value.is_number()) {
          std::cout << value.number;
        } else {
          std::cout << "?";
        }
      }
      std::cout << "\n";
    }
  }

  const JsonValue* base_meta = baseline->find("meta");
  const JsonValue* cur_meta = current->find("meta");
  if (base_meta != nullptr && cur_meta != nullptr &&
      base_meta->is_object() && cur_meta->is_object()) {
    compare_object(diff, options, "meta", *base_meta, *cur_meta);
  } else {
    diff.fail("both reports must carry a \"meta\" object");
  }
  const JsonValue* base_rows = baseline->find("rows");
  const JsonValue* cur_rows = current->find("rows");
  if (base_rows == nullptr || cur_rows == nullptr ||
      base_rows->type != JsonValue::Type::kArray ||
      cur_rows->type != JsonValue::Type::kArray) {
    diff.fail("both reports must carry a \"rows\" array");
  } else {
    if (base_rows->array.size() != cur_rows->array.size()) {
      // A structural failure, but the shared prefix still compares below
      // so every per-metric regression lands in the same run.
      diff.fail("row count changed: " +
                std::to_string(base_rows->array.size()) + " -> " +
                std::to_string(cur_rows->array.size()));
    }
    const std::size_t common =
        std::min(base_rows->array.size(), cur_rows->array.size());
    for (std::size_t i = 0; i < common; ++i) {
      const JsonValue& base_row = base_rows->array[i];
      const JsonValue& cur_row = cur_rows->array[i];
      if (!base_row.is_object() || !cur_row.is_object()) {
        diff.fail("rows[" + std::to_string(i) + "] must be objects");
        continue;
      }
      compare_object(diff, options, "rows[" + std::to_string(i) + "]",
                     base_row, cur_row);
    }
  }

  std::cout << "bench_diff: " << diff.metrics << " metric(s) compared, "
            << diff.regressions << " regression(s)";
  if (diff.rc == 0) std::cout << " — clean";
  std::cout << "\n";
  return diff.rc;
}
