// Helpers shared by the benchmark workloads: seeded input generation,
// percentile and median statistics, an in-memory span recorder, and the
// result a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ficon.hpp"

namespace perfbench {

// --- Inputs -------------------------------------------------------------

/// Compact shelf-row start expression: modules in index order fill rows
/// of width sqrt(1.15 * total module area); each row is a V chain and the
/// rows are stacked with H. PolishExpression::initial packs with deadspace
/// that grows with the module count; this start stays near 15%.
ficon::PolishExpression shelf_row_expression(const ficon::Netlist& netlist);

/// Independent RNG stream `purpose` derived from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

/// Service request walk, in to_string() format: one seeded stream of
/// random moves that restarts from PolishExpression::initial every
/// kWalkRestart requests, so every request is a few moves from the same
/// floorplan and a seed's costs stay comparable with another's.
inline constexpr int kWalkRestart = 8;
std::vector<std::string> request_walk(const ficon::Netlist& netlist,
                                      std::uint64_t seed, int count);

/// FNV-1a over the bit patterns of a sequence of doubles.
class Checksum {
 public:
  void add(double v);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// --- Statistics ---------------------------------------------------------

double median(std::vector<double> values);

/// Nearest-rank percentile of `values` (p in (0, 100]).
double percentile(std::vector<double> values, double p);

struct TailPercentile {
  double percentile = 0.0;  ///< chosen p (50 when no higher one qualifies)
  double value = 0.0;
  std::size_t count = 0;   ///< samples
  std::size_t beyond = 0;  ///< samples ranked above the chosen one
};

/// The highest of p99.9/p99/p95/p90/p75/p50, at most `max_percentile`,
/// whose nearest rank leaves at least `min_beyond` samples above it; falls
/// back to p50. A workload caps the percentile at one its sample count
/// always reaches, so the reported tail means the same on every seed.
TailPercentile tail_percentile(std::vector<double> values,
                               std::size_t min_beyond = 10,
                               double max_percentile = 99.9);

// --- Spans --------------------------------------------------------------

/// In-memory span log: name, start, end, parent and one id per move or
/// request. Spans nest strictly on one thread; self time is a span's
/// duration minus the durations of its direct children.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    int name = 0;
    long long op = 0;
    int parent = -1;
    long long start_ns = 0;
    long long end_ns = 0;
  };

  /// Register a span name once; returns its id.
  int name_id(const std::string& name);

  /// Open a span at `now_ns` under the innermost open span.
  int open(int name, long long op, long long now_ns);
  void close(int span, long long now_ns);

  static long long now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  /// RAII span timed with the steady clock; a null recorder records
  /// nothing and reads no clock.
  class Scope {
   public:
    Scope(SpanRecorder* rec, int name, long long op)
        : rec_(rec), span_(rec ? rec->open(name, op, now_ns()) : -1) {}
    ~Scope() {
      if (rec_ != nullptr) rec_->close(span_, now_ns());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int span_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self seconds of every span with this name.
  double self_seconds(const std::string& name) const;

 private:
  int find(const std::string& name) const;
  std::vector<long long> self_ns() const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: metrics, provenance notes, and the operation and
/// check tallies behind `attempted` / `failed`.
struct RunReport {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  long long attempted = 0;
  long long failed = 0;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& line) { notes.push_back(line); }
  /// Count one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
};

/// Pin the calling thread to the `slot`-th CPU (modulo the count) of the
/// set it may run on; returns that CPU, or -1 when affinity is
/// unavailable. The single-thread workloads rotate their anneals over the
/// CPUs: the vCPUs of a shared VM differ in speed, and which one is slow
/// changes within minutes.
int pin_to_cpu_slot(int slot);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double peak_rss_mib();

/// `%.17g`, so printed values round-trip.
std::string fmt_num(double v);

}  // namespace perfbench
