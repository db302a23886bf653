// Fuzz harness for the JSON parser (src/obs/json.hpp) and the trace
// validator (src/obs/report.hpp). The whole input, and each of its lines,
// goes through parse_json; the whole input also goes through lint_trace.
// Invariants:
//
//   * parse_json returns a value or fails with an error message; it never
//     throws;
//   * every number node's `number` is std::strtod of its `literal`, bit
//     for bit, and a finite number survives json_number -> parse_json
//     bit for bit;
//   * lint_trace returns one of its three results, and kOk only when the
//     first non-empty line is a meta record of the current schema
//     version.
//
// Built as a libFuzzer target under clang (-fsanitize=fuzzer); under gcc
// the shared standalone driver (standalone_main.cpp) replays files given
// on the command line, or runs a smoke loop over mutated write_jsonl
// exports of a report with phases, pool rows and annealer events,
// so that the validator's success path is reached too.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"

using ficon::obs::JsonValue;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void check_numbers(const JsonValue& value) {
  switch (value.type) {
    case JsonValue::Type::kNumber: {
      fuzz_check(same_bits(std::strtod(value.literal.c_str(), nullptr),
                           value.number),
                 "number differs from strtod of its literal");
      if (!std::isfinite(value.number)) return;
      const std::optional<JsonValue> again =
          ficon::obs::parse_json(ficon::obs::json_number(value.number));
      fuzz_check(again.has_value() && again->is_number() &&
                     same_bits(again->number, value.number),
                 "finite number changed in a json_number round trip");
      return;
    }
    case JsonValue::Type::kArray:
      for (const JsonValue& element : value.array) check_numbers(element);
      return;
    case JsonValue::Type::kObject:
      for (const auto& member : value.object) check_numbers(member.second);
      return;
    default:
      return;
  }
}

void check_parse(const std::string& text) {
  std::optional<JsonValue> value;
  std::string error;
  try {
    value = ficon::obs::parse_json(text, &error);
  } catch (...) {
    fuzz_check(false, "parse_json threw");
  }
  if (value.has_value()) {
    check_numbers(*value);
  } else {
    fuzz_check(!error.empty(), "parse_json failed without an error");
  }
}

/// True when the first non-empty line is a meta record of the current
/// trace schema version.
bool leads_with_current_meta(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::optional<JsonValue> record = ficon::obs::parse_json(line);
    if (!record.has_value()) return false;
    const JsonValue* type = record->find("type");
    const JsonValue* version = record->find("version");
    return type != nullptr && type->is_string() && type->string == "meta" &&
           version != nullptr && version->is_number() &&
           version->number ==
               static_cast<double>(ficon::obs::kTraceSchemaVersion);
  }
  return false;
}

/// A report with something in every record the writer emits.
ficon::obs::TraceReport smoke_report() {
  ficon::obs::TraceReport report;
  for (int i = 0; i < ficon::obs::kCounterCount; ++i) {
    report.counters[static_cast<std::size_t>(i)] = 1000 + 17 * i;
  }
  for (ficon::obs::HistSnapshot& h : report.phases) {
    h.buckets[11] = 3;
    h.buckets[12] = 5;
    h.buckets[20] = 1;
    h.count = 9;
    h.sum = 3 * 1500 + 5 * 3000 + 600000;
  }
  report.pool_threads = {{"main", 40, 0}, {"worker-0", 31, 125000}};
  for (int step = 0; step < 2; ++step) {
    ficon::obs::AnnealEvent e;
    e.step = step;
    e.temperature = 1.0 / (step + 3);
    e.proposed = 40;
    e.accepted = 12 - step;
    e.uphill_accepted = 3;
    e.proposed_by_kind = {0, 20, 15, 5};
    e.accepted_by_kind = {0, 6, 5 - step, 1};
    e.accepted_delta_sum = -0.0625 * (step + 1);
    e.current_cost = 0.75;
    e.best_cost = 0.6999999999999999;
    e.stall = step;
    report.anneal.push_back(e);
  }
  return report;
}

/// The export the smoke loop mutates, one record per line.
const std::vector<std::string>& smoke_lines() {
  static const std::vector<std::string> lines = [] {
    std::ostringstream out;
    ficon::obs::write_jsonl(out, smoke_report(), "json_fuzz");
    ficon::obs::write_solution_jsonl(out, 2406826.0, 259142.72439447566,
                                     0.0026805443200356499,
                                     0.70658411648833175, 0.125);
    std::vector<std::string> split;
    std::istringstream in(out.str());
    std::string line;
    while (std::getline(in, line)) split.push_back(line + "\n");
    return split;
  }();
  return lines;
}

/// One mutation of `s`: overwrite, insert or delete bytes, truncate, or
/// replace the value after a ':' with an edge value.
void mutate(ficon::SplitMix64& gen, std::string& s) {
  static constexpr const char* kValues[] = {
      "1e999", "-1e999", "1e-400", "-0", "0", "2", "3", "3.0", "2.5",
      "4.9406564584124654e-324", "1.7976931348623157e308",
      "9007199254740993", "18446744073709551616", "-1", "null", "true",
      "\"x\"", "[]", "{}", "\"\\u0000\"", "\"\\ud800\"", "[[[[[[[[",
      "\"meta\"", "\"phase\"", "\"hist\"", "\"cache\"", "\"pack\"",
      "[{\"lo\":1,\"hi\":2,\"count\":1}]",
      "[{\"lo\":2,\"hi\":1,\"count\":1}]"};
  static constexpr char kPunctuation[] = "[]{}:,\"\\-+.eE0123456789\n";
  if (s.empty()) {
    s.push_back(static_cast<char>(gen.next()));
    return;
  }
  const std::size_t at = gen.next() % s.size();
  switch (gen.next() % 5) {
    case 0:
      s[at] = static_cast<char>(gen.next());
      break;
    case 1:
      s.insert(at, 1, kPunctuation[gen.next() % (sizeof(kPunctuation) - 1)]);
      break;
    case 2:
      s.erase(at, 1 + gen.next() % 8);
      break;
    case 3: {
      const std::size_t colon = s.find(':', at);
      if (colon == std::string::npos) break;
      const std::size_t end = s.find_first_of(",}", colon + 1);
      const std::size_t stop = end == std::string::npos ? s.size() : end;
      s.replace(colon + 1, stop - colon - 1,
                kValues[gen.next() % std::size(kValues)]);
      break;
    }
    default:
      s.resize(at);
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  check_parse(bytes);
  std::istringstream lines(bytes);
  std::string line;
  while (std::getline(lines, line)) check_parse(line);

  std::istringstream in(bytes);
  std::string error;
  const ficon::obs::TraceLintResult result = ficon::obs::lint_trace(in, &error);
  fuzz_check(result == ficon::obs::TraceLintResult::kOk ||
                 result == ficon::obs::TraceLintResult::kSchemaViolation ||
                 result == ficon::obs::TraceLintResult::kIoError,
             "lint_trace returned an unknown result");
  if (result == ficon::obs::TraceLintResult::kOk) {
    fuzz_check(leads_with_current_meta(bytes),
               "trace accepted without a current meta line");
  } else {
    fuzz_check(!error.empty(), "trace rejected without an error");
  }
  return 0;
}

void fuzz_smoke_input(ficon::SplitMix64& gen, std::vector<std::uint8_t>& data) {
  const std::vector<std::string>& lines = smoke_lines();
  // Half the inputs are the whole export, half one record of it (which
  // is also a whole JSON document); a quarter stay unmutated, so the
  // success paths run.
  std::string text;
  if (gen.next() % 2 == 0) {
    for (const std::string& line : lines) text += line;
  } else {
    text = lines[gen.next() % lines.size()];
  }
  const int mutations = static_cast<int>(gen.next() % 4);
  for (int m = 0; m < mutations; ++m) mutate(gen, text);
  data.assign(text.begin(), text.end());
}
