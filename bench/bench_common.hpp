// Shared configuration and reporting for the benches.
//
// Every bench prints a banner describing how the run is scaled relative to
// the paper (20 seeds, full annealing schedules on a 2.4 GHz P4). Set
// FICON_SEEDS=20 FICON_SCALE=1.0 to reproduce at paper scale.
//
// Machine-readable results go through one path: BenchReport emits
// BENCH_<name>.json files in the "ficon-bench-v1" schema documented in
// docs/BENCHMARKS.md and checked by tools/bench_diff --lint. FICON_BENCH_OUT
// picks the output directory (default: current directory).
#pragma once

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ficon.hpp"

namespace ficon::bench {

/// Mean wall-clock milliseconds of `fn` over `repeats` runs.
inline double timed_ms(const std::function<void()>& fn, int repeats) {
  FICON_REQUIRE(repeats > 0, "need at least one repeat");
  Stopwatch sw;
  for (int i = 0; i < repeats; ++i) fn();
  return sw.milliseconds() / repeats;
}

/// @brief Collects one bench run's metrics and writes BENCH_<name>.json.
///
/// Schema "ficon-bench-v1": a single object with "schema", "bench", a
/// flat "meta" object of run-level scalars, and "rows" — one object per
/// measured configuration (size tier, circuit, thread count, ...).
/// Doubles are printed with %.17g so values round-trip bit-exactly (the
/// trace writer's convention); non-finite values become null.
class BenchReport {
 public:
  /// The constructor stamps the machine manifest: git sha (from the
  /// FICON_GIT_SHA knob — CI sets it, local runs record "unknown"),
  /// compiler, configured thread count and hardware concurrency.
  /// Benches append workload identity (e.g. netlist fingerprints) via
  /// manifest(). The manifest is provenance, not a metric: bench_diff
  /// prints it but never compares it.
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {
    add(manifest_, "git_sha", quote(env_string("FICON_GIT_SHA", "unknown")));
    add(manifest_, "compiler", quote(compiler_id()));
    add(manifest_, "threads",
        std::to_string(static_cast<long long>(ThreadPool::env_threads())));
    add(manifest_, "hardware_threads",
        std::to_string(static_cast<long long>(
            std::thread::hardware_concurrency())));
  }

  /// Run-level scalar ("seed", "threads", "circuit", ...).
  void meta(const std::string& key, double v) { add(meta_, key, num(v)); }
  void meta(const std::string& key, long long v) {
    add(meta_, key, std::to_string(v));
  }
  void meta(const std::string& key, const std::string& v) {
    add(meta_, key, quote(v));
  }

  /// Machine/workload provenance ("netlist_fingerprint", ...).
  void manifest(const std::string& key, const std::string& v) {
    add(manifest_, key, quote(v));
  }

  /// Start the next row; subsequent value() calls fill it.
  void begin_row() { rows_.emplace_back(); }
  void value(const std::string& key, double v) {
    add(rows_.back(), key, num(v));
  }
  void value(const std::string& key, long long v) {
    add(rows_.back(), key, std::to_string(v));
  }
  void value(const std::string& key, const std::string& v) {
    add(rows_.back(), key, quote(v));
  }

  std::size_t row_count() const { return rows_.size(); }

  void write(std::ostream& os) const {
    os << "{\n  \"schema\": \"ficon-bench-v1\",\n  \"bench\": "
       << quote(bench_) << ",\n  \"manifest\": " << object(manifest_)
       << ",\n  \"meta\": " << object(meta_)
       << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i == 0 ? "\n    " : ",\n    ") << object(rows_[i]);
    }
    os << "\n  ]\n}\n";
  }

  /// Write BENCH_<bench>.json under $FICON_BENCH_OUT (default ".").
  /// @return the path written.
  std::string write_file() const {
    const std::string path = env_string("FICON_BENCH_OUT", ".") + "/BENCH_" +
                             bench_ + ".json";
    std::ofstream os(path);
    FICON_REQUIRE(os.good(), "cannot open bench report for writing");
    write(os);
    return path;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static void add(Fields& fields, const std::string& key,
                  std::string encoded) {
    fields.emplace_back(key, std::move(encoded));
  }

  static std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
  }

  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  static std::string object(const Fields& fields) {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += quote(fields[i].first) + ": " + fields[i].second;
    }
    out += "}";
    return out;
  }

  std::string bench_;
  Fields manifest_;
  Fields meta_;
  std::vector<Fields> rows_;
};

/// Annealing options tuned for the reproduction benches.
inline FloorplanOptions tuned_options(const ExperimentConfig& config) {
  FloorplanOptions o;
  o.effort = config.scale;
  o.anneal.cooling = 0.90;
  o.anneal.max_stall_temperatures = 8;
  o.anneal.stop_temperature_ratio = 1e-4;
  return o;
}

/// Congestion weight for the Table 2/3 objective. The paper does not state
/// its alpha/beta/gamma; 0.4 reproduces its trade-off at our reduced SA
/// effort (judged congestion clearly improves at a few percent of area /
/// wire penalty — see the gamma sweep in EXPERIMENTS.md). FICON_GAMMA
/// overrides.
inline double congestion_gamma() { return env_double("FICON_GAMMA", 0.4); }

/// The paper's per-circuit IR-grid fine pitch (Table 2): 60x60 um^2 for
/// apte, 30x30 um^2 for the others.
inline IrregularGridParams paper_ir_params(const std::string& circuit) {
  IrregularGridParams p;
  const double pitch = circuit == "apte" ? 60.0 : 30.0;
  p.grid_w = pitch;
  p.grid_h = pitch;
  return p;
}

/// Same pitches but forcing the paper's actual algorithm: Theorem 1 per
/// region, with the library's accuracy-first exact fallbacks narrowed so
/// the approximation really is what runs on MCNC-scale ranges.
inline IrregularGridParams paper_mode_params(const std::string& circuit) {
  IrregularGridParams p = paper_ir_params(circuit);
  p.strategy = IrEvalStrategy::kTheorem1;
  p.approx.narrow_range_threshold = 5;
  p.approx.small_region_threshold = 4;
  return p;
}

}  // namespace ficon::bench
