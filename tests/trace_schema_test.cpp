// JSONL trace schema: the bundled JSON parser must handle the grammar the
// writer emits (including %.17g doubles, bit-exactly), and the validator
// must accept exactly the documented record shapes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "ficon.hpp"
#include "obs/json.hpp"

namespace ficon {
namespace {

using obs::JsonValue;
using obs::parse_json;

TEST(JsonParser, ParsesScalars) {
  EXPECT_EQ(parse_json("null")->type, JsonValue::Type::kNull);
  EXPECT_TRUE(parse_json("true")->boolean);
  EXPECT_FALSE(parse_json("false")->boolean);
  EXPECT_DOUBLE_EQ(parse_json("42")->number, 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-1.5e3")->number, -1500.0);
  EXPECT_EQ(parse_json("\"hi\"")->string, "hi");
}

TEST(JsonParser, ParsesEscapesAndNesting) {
  const auto v = parse_json(R"({"a":[1,{"b":"x\n\t\"\\A"}],"c":{}})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 2u);
  const JsonValue* b = a->array[1].find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string, "x\n\t\"\\A");
  EXPECT_TRUE(v->find("c")->is_object());
}

TEST(JsonParser, RoundTripsSeventeenDigitDoubles) {
  // The writer prints doubles with %.17g; parsing that text must return
  // the original bits.
  for (const double x : {0.1, 1.0 / 3.0, 6.02214076e23, -2.2250738585072014e-308}) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    const auto v = parse_json(buf);
    ASSERT_TRUE(v.has_value()) << buf;
    EXPECT_EQ(v->number, x) << buf;
  }
}

TEST(JsonParser, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}", &error).has_value());
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(parse_json("1 2", &error).has_value());  // trailing garbage
  EXPECT_FALSE(error.empty());
  // Nesting past kMaxJsonDepth is an error, not a stack overflow.
  error.clear();
  EXPECT_FALSE(parse_json(std::string(100000, '['), &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
  EXPECT_TRUE(parse_json(std::string(obs::kMaxJsonDepth, '[') +
                         std::string(obs::kMaxJsonDepth, ']'))
                  .has_value());
  EXPECT_FALSE(parse_json(std::string(obs::kMaxJsonDepth + 1, '[') +
                          std::string(obs::kMaxJsonDepth + 1, ']'))
                   .has_value());
}

TEST(TraceSchema, AcceptsEveryDocumentedRecordType) {
  const char* lines[] = {
      R"({"type":"meta","version":4,"tool":"t"})",
      R"({"type":"counter","name":"anneal_runs","value":1})",
      R"({"type":"phase","name":"pack","calls":3,"seconds":0.5,"buckets":[{"lo":1,"hi":2,"count":1},{"lo":2,"hi":4,"count":2}]})",
      R"({"type":"phase","name":"congestion","calls":0,"seconds":0,"buckets":[]})",
      R"({"type":"thread_pool","thread":"worker-0","tasks":4,"queue_wait_seconds":0.001})",
      R"({"type":"solution","area":1.0,"wirelength":2.0,"congestion":0.5,"cost":3.5,"seconds":0.1})",
  };
  for (const char* line : lines) {
    std::string error;
    EXPECT_TRUE(obs::validate_trace_line(line, &error)) << line << ": "
                                                        << error;
  }
}

TEST(TraceSchema, PhaseRecordsAreCheckedForBucketConsistency) {
  // Bucket lists must be well-formed: numeric lo/hi/count per bucket,
  // lo < hi, strictly increasing lo, non-negative counts summing to the
  // declared "calls". A sparse export is how a corrupted merge would
  // slip by — lint it hard.
  const char* bad[] = {
      // A phase without buckets.
      R"({"type":"phase","name":"pack","calls":3,"seconds":0.5})",
      // Bucket is not an object.
      R"({"type":"phase","name":"pack","calls":1,"seconds":0.5,"buckets":[7]})",
      // Bucket missing "count".
      R"({"type":"phase","name":"pack","calls":1,"seconds":0.5,"buckets":[{"lo":1,"hi":2}]})",
      // lo >= hi.
      R"({"type":"phase","name":"pack","calls":1,"seconds":0.5,"buckets":[{"lo":4,"hi":2,"count":1}]})",
      R"({"type":"phase","name":"pack","calls":1,"seconds":0.5,"buckets":[{"lo":2,"hi":1,"count":1}]})",
      // Non-monotone lo sequence.
      R"({"type":"phase","name":"pack","calls":2,"seconds":0.5,"buckets":[{"lo":4,"hi":8,"count":1},{"lo":2,"hi":4,"count":1}]})",
      // Negative bucket count.
      R"({"type":"phase","name":"pack","calls":1,"seconds":0.5,"buckets":[{"lo":1,"hi":2,"count":-1}]})",
      // Bucket counts do not sum to "calls".
      R"({"type":"phase","name":"pack","calls":4,"seconds":0.5,"buckets":[{"lo":1,"hi":2,"count":1},{"lo":2,"hi":4,"count":2}]})",
      R"({"type":"phase","name":"pack","calls":5,"seconds":0.5,"buckets":[{"lo":1,"hi":2,"count":1},{"lo":2,"hi":4,"count":2}]})",
  };
  for (const char* line : bad) {
    std::string error;
    EXPECT_FALSE(obs::validate_trace_line(line, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(TraceSchema, RejectsBadRecords) {
  const char* lines[] = {
      "not json at all",
      "[1,2,3]",                                       // not an object
      R"({"name":"x","value":1})",                     // missing type
      R"({"type":"launch_codes"})",                    // unknown type
      R"({"type":"counter","name":"anneal_runs"})",    // missing field
      R"({"type":"counter","name":7,"value":1})",      // wrong field kind
      R"({"type":"phase","name":"pack","calls":"3","seconds":0.5,"buckets":[]})",
      // Schema-v2 records that restated counters.
      R"({"type":"cache","name":"score_memo","hits":1,"misses":2,"evictions":0})",
      R"({"type":"strategy","name":"theorem1","regions":9,"exact_fallbacks":1})",
      R"({"type":"anneal_summary","runs":1,"temperatures":2,"proposed":40,"accepted":12,"uphill_accepted":3,"stall_temperatures":0})",
  };
  for (const char* line : lines) {
    std::string error;
    EXPECT_FALSE(obs::validate_trace_line(line, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
  // Schema v4 has no "hist" record: the accept-ratio histogram restated
  // the temperature records.
  std::string error;
  EXPECT_FALSE(obs::validate_trace_line(
      R"({"type":"hist","name":"accept_ratio_ppm","count":0,"sum":0,"buckets":[]})",
      &error));
  EXPECT_NE(error.find("unknown record type"), std::string::npos) << error;
}

TEST(TraceSchema, RejectsNamesMissingFromRegistry) {
  // Free-form names defeat the point of a schema: every counter and phase
  // name must come from obs/schema.hpp. The schema-v3 counters that
  // restated other records are gone from it.
  const char* lines[] = {
      R"({"type":"counter","name":"made_up_counter","value":1})",
      R"({"type":"phase","name":"warp","calls":0,"seconds":0.5,"buckets":[]})",
      R"({"type":"counter","name":"anneal_temperatures","value":1})",
      R"({"type":"counter","name":"anneal_moves_proposed","value":1})",
      R"({"type":"counter","name":"anneal_moves_accepted","value":1})",
      R"({"type":"counter","name":"anneal_uphill_accepted","value":1})",
      R"({"type":"counter","name":"anneal_stall_temperatures","value":1})",
      R"({"type":"counter","name":"pool_tasks","value":1})",
  };
  for (const char* line : lines) {
    std::string error;
    EXPECT_FALSE(obs::validate_trace_line(line, &error)) << line;
    EXPECT_NE(error.find("schema registry"), std::string::npos) << error;
  }
}

TEST(TraceSchema, EveryCounterAndPhaseNameIsRegistered) {
  // counter_name/phase_name draw from the registry tables; the validator
  // must accept everything the writer can emit.
  for (int i = 0; i < obs::kCounterCount; ++i) {
    const std::string line =
        std::string(R"({"type":"counter","name":")") +
        obs::counter_name(static_cast<obs::Counter>(i)) +
        R"(","value":0})";
    std::string error;
    EXPECT_TRUE(obs::validate_trace_line(line, &error)) << error;
  }
  for (int i = 0; i < obs::kPhaseCount; ++i) {
    const std::string line =
        std::string(R"({"type":"phase","name":")") +
        obs::phase_name(static_cast<obs::Phase>(i)) +
        R"(","calls":0,"seconds":0.0,"buckets":[]})";
    std::string error;
    EXPECT_TRUE(obs::validate_trace_line(line, &error)) << error;
  }
}

TEST(TraceSchema, StreamValidatorRequiresLeadingMeta) {
  std::string error;

  std::istringstream good(
      "{\"type\":\"meta\",\"version\":4,\"tool\":\"t\"}\n"
      "{\"type\":\"counter\",\"name\":\"anneal_runs\",\"value\":0}\n"
      "\n");  // blank lines are fine
  EXPECT_TRUE(obs::validate_trace(good, &error)) << error;

  std::istringstream headless(
      "{\"type\":\"counter\",\"name\":\"anneal_runs\",\"value\":0}\n");
  EXPECT_FALSE(obs::validate_trace(headless, &error));

  std::istringstream wrong_version(
      "{\"type\":\"meta\",\"version\":999,\"tool\":\"t\"}\n");
  EXPECT_FALSE(obs::validate_trace(wrong_version, &error));

  // A version-3 trace is not read as a version-4 one, nor is a
  // version-2 one.
  for (const int old_version : {2, 3}) {
    std::istringstream old(R"({"type":"meta","version":)" +
                           std::to_string(old_version) +
                           R"(,"tool":"t"})" + "\n");
    EXPECT_FALSE(obs::validate_trace(old, &error)) << old_version;
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }

  std::istringstream bad_tail(
      "{\"type\":\"meta\",\"version\":4,\"tool\":\"t\"}\n"
      "{\"type\":\"counter\"}\n");
  EXPECT_FALSE(obs::validate_trace(bad_tail, &error));
  EXPECT_NE(error.find("line"), std::string::npos);  // position-tagged
}

TEST(TraceLint, DistinguishesSchemaViolationFromParseError) {
  // trace_lint's exit codes come straight from TraceLintResult: CI must
  // be able to tell a malformed trace (1) from an unreadable file (2).
  static_assert(static_cast<int>(obs::TraceLintResult::kOk) == 0);
  static_assert(
      static_cast<int>(obs::TraceLintResult::kSchemaViolation) == 1);
  static_assert(static_cast<int>(obs::TraceLintResult::kIoError) == 2);

  std::string error;
  std::istringstream ok(
      "{\"type\":\"meta\",\"version\":4,\"tool\":\"t\"}\n");
  EXPECT_EQ(obs::lint_trace(ok, &error), obs::TraceLintResult::kOk);

  // Well-formed JSON, but the record violates the schema -> 1.
  std::istringstream bad_record(
      "{\"type\":\"meta\",\"version\":4,\"tool\":\"t\"}\n"
      "{\"type\":\"counter\",\"name\":\"anneal_runs\"}\n");
  EXPECT_EQ(obs::lint_trace(bad_record, &error),
            obs::TraceLintResult::kSchemaViolation);
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Headless / wrong version are schema problems, not I/O problems.
  std::istringstream headless(
      "{\"type\":\"counter\",\"name\":\"anneal_runs\",\"value\":0}\n");
  EXPECT_EQ(obs::lint_trace(headless, &error),
            obs::TraceLintResult::kSchemaViolation);

  // Not JSON at all -> 2.
  std::istringstream garbage("$$ not a trace $$\n");
  EXPECT_EQ(obs::lint_trace(garbage, &error),
            obs::TraceLintResult::kIoError);
}

TEST(TraceLint, FileEntryPointsReportIoErrors) {
  std::string error;
  EXPECT_EQ(obs::lint_trace_file("/nonexistent/ficon-trace.jsonl", &error),
            obs::TraceLintResult::kIoError);
  EXPECT_EQ(error, "cannot open");

  // Round-trip through an actual file: written traces lint clean.
  const std::string path = ::testing::TempDir() + "trace_lint_test.jsonl";
  {
    std::ofstream out(path);
    obs::write_jsonl(out, obs::TraceReport{}, "trace_schema_test");
  }
  EXPECT_EQ(obs::lint_trace_file(path, &error), obs::TraceLintResult::kOk)
      << error;
  std::remove(path.c_str());
}

TEST(TraceSchema, EmptyReportStillValidates) {
  // Even a run with zeroed sinks produces a schema-complete document.
  obs::reset();
  std::ostringstream out;
  obs::write_jsonl(out, obs::TraceReport{}, "trace_schema_test");
  std::istringstream in(out.str());
  std::string error;
  EXPECT_TRUE(obs::validate_trace(in, &error)) << error;
}

}  // namespace
}  // namespace ficon
