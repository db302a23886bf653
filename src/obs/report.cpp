#include "obs/report.hpp"

#include <cstddef>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "util/table.hpp"
#include "obs/json.hpp"
#include "obs/schema.hpp"

namespace ficon::obs {
namespace {

struct CacheLine {
  const char* name;
  Counter hits;
  Counter misses;
  std::optional<Counter> evictions;
};

constexpr CacheLine kCacheLines[] = {
    {"score_memo", Counter::kScoreMemoHits, Counter::kScoreMemoMisses,
     Counter::kScoreMemoEvictions},
    {"pack_cached", Counter::kPackCacheIncremental,
     Counter::kPackCacheFullRebuilds, std::nullopt},
    {"decomposer", Counter::kDecomposeNetsReused,
     Counter::kDecomposeNetsRecomputed, std::nullopt},
};

struct StrategyLine {
  const char* name;
  Counter regions;
  std::optional<Counter> fallbacks;
};

constexpr StrategyLine kStrategyLines[] = {
    {"theorem1", Counter::kIrRegionsTheorem1,
     Counter::kIrTheorem1ExactFallbacks},
    {"exact_per_region", Counter::kIrRegionsExact, std::nullopt},
    {"banded_exact", Counter::kIrRegionsBanded, std::nullopt},
    {"degenerate", Counter::kIrNetsDegenerate, std::nullopt},
};

double ratio(long long part, long long whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

/// The non-empty buckets of `h` as a JSON array; "lo" strictly
/// increases and the counts sum to `h.count`.
void write_buckets(std::ostream& os, const HistSnapshot& h) {
  os << ",\"buckets\":[";
  bool first = true;
  for (int b = 0; b < kHistBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"lo\":" << hist_bucket_lo(b) << ",\"hi\":" << hist_bucket_hi(b)
       << ",\"count\":" << h.buckets[b] << "}";
  }
  os << "]";
}

}  // namespace

void write_jsonl(std::ostream& os, const TraceReport& report,
                 const std::string& tool) {
  os << "{\"type\":\"meta\",\"version\":" << kTraceSchemaVersion
     << ",\"tool\":\"" << json_escape(tool) << "\"}\n";
  for (int i = 0; i < kCounterCount; ++i) {
    os << "{\"type\":\"counter\",\"name\":\""
       << counter_name(static_cast<Counter>(i))
       << "\",\"value\":" << report.counters[i] << "}\n";
  }
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    os << "{\"type\":\"phase\",\"name\":\"" << phase_name(p)
       << "\",\"calls\":" << report.phase_call_count(p)
       << ",\"seconds\":" << json_number(report.phase_seconds(p));
    write_buckets(os, report.phase(p));
    os << "}\n";
  }
  for (const PoolThreadSample& t : report.pool_threads) {
    os << "{\"type\":\"thread_pool\",\"thread\":\""
       << json_escape(t.thread) << "\",\"tasks\":" << t.tasks
       << ",\"queue_wait_seconds\":"
       << json_number(static_cast<double>(t.queue_wait_ns) * 1e-9) << "}\n";
  }
  for (const AnnealEvent& e : report.anneal) {
    os << "{\"type\":\"anneal_temperature\",\"run\":" << e.run
       << ",\"step\":" << e.step
       << ",\"temperature\":" << json_number(e.temperature)
       << ",\"proposed\":" << e.proposed << ",\"accepted\":" << e.accepted
       << ",\"uphill_accepted\":" << e.uphill_accepted;
    for (int k = 1; k < kMoveKinds; ++k) {
      os << ",\"proposed_m" << k << "\":" << e.proposed_by_kind[k];
    }
    for (int k = 1; k < kMoveKinds; ++k) {
      os << ",\"accepted_m" << k << "\":" << e.accepted_by_kind[k];
    }
    os << ",\"accepted_delta\":" << json_number(e.accepted_delta_sum)
       << ",\"current_cost\":" << json_number(e.current_cost)
       << ",\"best_cost\":" << json_number(e.best_cost)
       << ",\"stall\":" << e.stall << "}\n";
  }
}

void write_solution_jsonl(std::ostream& os, double area, double wirelength,
                          double congestion, double cost, double seconds) {
  os << "{\"type\":\"solution\",\"area\":" << json_number(area)
     << ",\"wirelength\":" << json_number(wirelength)
     << ",\"congestion\":" << json_number(congestion)
     << ",\"cost\":" << json_number(cost)
     << ",\"seconds\":" << json_number(seconds) << "}\n";
}

void write_summary(std::ostream& os, const TraceReport& report) {
  os << "telemetry summary\n";

  // The annealer's totals are sums over its temperature records.
  long long proposed = 0;
  long long accepted = 0;
  long long uphill = 0;
  long long stalls = 0;
  for (const AnnealEvent& e : report.anneal) {
    proposed += e.proposed;
    accepted += e.accepted;
    uphill += e.uphill_accepted;
    if (e.stall > 0) ++stalls;
  }
  TextTable anneal({"annealer", "value"});
  anneal.add_row({"runs", std::to_string(
                              report.counter(Counter::kAnnealRuns))});
  anneal.add_row({"temperatures", std::to_string(report.anneal.size())});
  anneal.add_row({"moves proposed", std::to_string(proposed)});
  anneal.add_row({"moves accepted", std::to_string(accepted)});
  anneal.add_row(
      {"accept rate %", fmt_fixed(100.0 * ratio(accepted, proposed), 2)});
  anneal.add_row({"uphill accepted", std::to_string(uphill)});
  anneal.add_row({"stall temperatures", std::to_string(stalls)});
  anneal.print(os);
  os << "\n";

  TextTable caches({"cache", "hits", "misses", "evictions", "hit %"});
  for (const CacheLine& c : kCacheLines) {
    const long long hits = report.counter(c.hits);
    const long long misses = report.counter(c.misses);
    caches.add_row(
        {c.name, std::to_string(hits), std::to_string(misses),
         std::to_string(c.evictions ? report.counter(*c.evictions) : 0),
         fmt_fixed(100.0 * ratio(hits, hits + misses), 2)});
  }
  caches.print(os);
  os << "\n";

  // Band steps are the banded strategy's work count (one per recurrence
  // step), so they sit on its row.
  TextTable strategies(
      {"strategy", "regions", "exact fallbacks", "band steps"});
  for (const StrategyLine& s : kStrategyLines) {
    strategies.add_row(
        {s.name, std::to_string(report.counter(s.regions)),
         std::to_string(s.fallbacks ? report.counter(*s.fallbacks) : 0),
         s.regions == Counter::kIrRegionsBanded
             ? std::to_string(report.counter(Counter::kIrBandSteps))
             : "-"});
  }
  strategies.add_row(
      {"certain (pin/full-span)",
       std::to_string(report.counter(Counter::kIrRegionsCertain)), "0", "-"});
  strategies.print(os);
  os << "\n";

  const auto quantile = [](const HistSnapshot& h, double fraction) {
    return std::to_string(h.quantile_upper_bound(fraction));
  };
  TextTable phases(
      {"phase", "calls", "seconds", "~p50 ns", "~p90 ns", "~p99 ns"});
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    const HistSnapshot& h = report.phase(p);
    phases.add_row({phase_name(p), std::to_string(h.count),
                    fmt_fixed(report.phase_seconds(p), 3), quantile(h, 0.50),
                    quantile(h, 0.90), quantile(h, 0.99)});
  }
  phases.print(os);
  os << "\n";

  TextTable pool({"thread", "tasks", "queue wait s"});
  for (const PoolThreadSample& t : report.pool_threads) {
    pool.add_row({t.thread, std::to_string(t.tasks),
                  fmt_fixed(static_cast<double>(t.queue_wait_ns) * 1e-9,
                            3)});
  }
  if (pool.row_count() > 0) pool.print(os);
}

namespace {

struct Field {
  const char* name;
  JsonValue::Type type;
};

/// Registered values for one string field (e.g. a counter's "name" must
/// be a registered counter name). Empty = free-form.
struct NameTable {
  const char* field = nullptr;
  const char* const* names = nullptr;
  std::size_t count = 0;
};

struct RecordSchema {
  const char* type;
  std::vector<Field> fields;
  NameTable names{};
  /// The field the "buckets" counts must sum to, for records that carry
  /// a histogram.
  const char* bucket_total = nullptr;
};

template <std::size_t N>
constexpr NameTable name_table(const char* field,
                               const char* const (&names)[N]) {
  return NameTable{field, names, N};
}

const std::vector<RecordSchema>& trace_schema() {
  using T = JsonValue::Type;
  static const std::vector<RecordSchema> schema = {
      {"meta", {{"version", T::kNumber}, {"tool", T::kString}}},
      {"counter",
       {{"name", T::kString}, {"value", T::kNumber}},
       name_table("name", schema::kCounterNames)},
      {"phase",
       {{"name", T::kString},
        {"calls", T::kNumber},
        {"seconds", T::kNumber},
        {"buckets", T::kArray}},
       name_table("name", schema::kPhaseNames),
       "calls"},
      {"thread_pool",
       {{"thread", T::kString},
        {"tasks", T::kNumber},
        {"queue_wait_seconds", T::kNumber}}},
      {"anneal_temperature",
       {{"run", T::kNumber},
        {"step", T::kNumber},
        {"temperature", T::kNumber},
        {"proposed", T::kNumber},
        {"accepted", T::kNumber},
        {"uphill_accepted", T::kNumber},
        {"proposed_m1", T::kNumber},
        {"proposed_m2", T::kNumber},
        {"proposed_m3", T::kNumber},
        {"accepted_m1", T::kNumber},
        {"accepted_m2", T::kNumber},
        {"accepted_m3", T::kNumber},
        {"accepted_delta", T::kNumber},
        {"current_cost", T::kNumber},
        {"best_cost", T::kNumber},
        {"stall", T::kNumber}}},
      {"solution",
       {{"area", T::kNumber},
        {"wirelength", T::kNumber},
        {"congestion", T::kNumber},
        {"cost", T::kNumber},
        {"seconds", T::kNumber}}},
  };
  return schema;
}

TraceLintResult lint_error(std::string* error, const std::string& message,
                           TraceLintResult result) {
  if (error != nullptr) *error = message;
  return result;
}

TraceLintResult schema_error(std::string* error,
                             const std::string& message) {
  return lint_error(error, message, TraceLintResult::kSchemaViolation);
}

bool known_name(const NameTable& table, const std::string& name) {
  for (std::size_t i = 0; i < table.count; ++i) {
    if (name == table.names[i]) return true;
  }
  return false;
}

/// Bucket checks beyond the generic field pass: every bucket is an
/// object of numbers with lo < hi, the lo sequence is strictly
/// increasing, and the bucket counts sum to the record's `total` field.
TraceLintResult lint_buckets(const JsonValue& record, const char* total,
                             std::string* error) {
  const JsonValue& buckets = *record.find("buckets");
  double previous_lo = -1.0;
  bool have_previous = false;
  double sum = 0.0;
  for (const JsonValue& bucket : buckets.array) {
    if (!bucket.is_object()) {
      return schema_error(error, "bucket is not a JSON object");
    }
    const JsonValue* lo = bucket.find("lo");
    const JsonValue* hi = bucket.find("hi");
    const JsonValue* count = bucket.find("count");
    if (lo == nullptr || !lo->is_number() || hi == nullptr ||
        !hi->is_number() || count == nullptr || !count->is_number()) {
      return schema_error(error, "bucket lacks numeric lo/hi/count fields");
    }
    if (!(lo->number < hi->number)) {
      return schema_error(error, "bucket has lo >= hi");
    }
    if (have_previous && !(lo->number > previous_lo)) {
      return schema_error(error,
                          "bucket lo values are not strictly increasing");
    }
    previous_lo = lo->number;
    have_previous = true;
    if (count->number < 0) {
      return schema_error(error, "bucket has a negative count");
    }
    sum += count->number;
  }
  if (sum != record.find(total)->number) {
    return schema_error(error, std::string("bucket counts do not sum to \"") +
                                   total + "\"");
  }
  return TraceLintResult::kOk;
}

/// One line: kIoError when the text is not JSON at all, kSchemaViolation
/// when it parses but is not a valid record of the current schema.
TraceLintResult lint_trace_line(const std::string& line,
                                std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> value = parse_json(line, &parse_error);
  if (!value.has_value()) {
    return lint_error(error, parse_error, TraceLintResult::kIoError);
  }
  if (!value->is_object()) {
    return schema_error(error, "trace record is not a JSON object");
  }
  const JsonValue* type = value->find("type");
  if (type == nullptr || !type->is_string()) {
    return schema_error(error, "trace record lacks a string \"type\" field");
  }
  for (const RecordSchema& record : trace_schema()) {
    if (type->string != record.type) continue;
    for (const Field& field : record.fields) {
      const JsonValue* member = value->find(field.name);
      if (member == nullptr) {
        return schema_error(error, "record \"" + type->string +
                                       "\" lacks field \"" + field.name +
                                       "\"");
      }
      if (member->type != field.type) {
        return schema_error(error, "record \"" + type->string +
                                       "\" field \"" + field.name +
                                       "\" has the wrong type");
      }
    }
    if (record.names.field != nullptr) {
      const JsonValue* member = value->find(record.names.field);
      if (member != nullptr && !known_name(record.names, member->string)) {
        return schema_error(error, "record \"" + type->string + "\" " +
                                       record.names.field + " \"" +
                                       member->string +
                                       "\" is not in the schema registry");
      }
    }
    if (record.bucket_total != nullptr) {
      return lint_buckets(*value, record.bucket_total, error);
    }
    return TraceLintResult::kOk;
  }
  return schema_error(error,
                      "unknown record type \"" + type->string + "\"");
}

}  // namespace

bool validate_trace_line(const std::string& line, std::string* error) {
  return lint_trace_line(line, error) == TraceLintResult::kOk;
}

TraceLintResult lint_trace(std::istream& is, std::string* error) {
  std::string line;
  long long line_number = 0;
  long long records = 0;
  bool meta_seen = false;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::string line_error;
    const TraceLintResult result = lint_trace_line(line, &line_error);
    if (result != TraceLintResult::kOk) {
      return lint_error(error,
                        "line " + std::to_string(line_number) + ": " +
                            line_error,
                        result);
    }
    ++records;
    if (records == 1) {
      const JsonValue value = *parse_json(line);
      const JsonValue* type = value.find("type");
      const JsonValue* version = value.find("version");
      if (type == nullptr || type->string != "meta") {
        return schema_error(error, "first record must be a meta line");
      }
      if (version == nullptr ||
          version->number !=
              static_cast<double>(kTraceSchemaVersion)) {
        return schema_error(error, "unsupported trace schema version");
      }
      meta_seen = true;
    }
  }
  if (is.bad()) {
    return lint_error(error, "read error", TraceLintResult::kIoError);
  }
  if (!meta_seen) {
    return schema_error(error, "trace contains no records");
  }
  return TraceLintResult::kOk;
}

bool validate_trace(std::istream& is, std::string* error) {
  return lint_trace(is, error) == TraceLintResult::kOk;
}

TraceLintResult lint_trace_file(const std::string& path,
                                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    return lint_error(error, "cannot open", TraceLintResult::kIoError);
  }
  return lint_trace(in, error);
}

void emit_env_trace(std::ostream& os, const std::string& tool) {
  if (!trace_enabled()) return;
  const TraceReport report = capture();
  write_summary(os, report);
  const std::string path = trace_output_path();
  if (!path.empty()) {
    std::ofstream out(path);
    if (out) {
      write_jsonl(out, report, tool);
      os << "# trace written to " << path << "\n";
    } else {
      os << "# trace: could not open " << path << " for writing\n";
    }
  }
}

}  // namespace ficon::obs
