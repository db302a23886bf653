/// \file
/// Trace export: JSON Lines for machines, a `TextTable` summary for
/// humans, and a validator for the JSONL schema.
///
/// JSONL schema v4 (one object per line, discriminated by "type"):
///
///   {"type":"meta","version":4,"tool":"..."}
///   {"type":"counter","name":"...","value":N}
///   {"type":"phase","name":"pack|decompose|congestion",
///    "calls":N,"seconds":S,"buckets":[{"lo":L,"hi":H,"count":N},...]}
///     — a phase is its per-call latency histogram in nanoseconds;
///       bucket counts sum to "calls", only non-empty buckets are
///       emitted and "lo" strictly increases.
///   {"type":"thread_pool","thread":"...","tasks":N,
///    "queue_wait_seconds":S}
///     — one per thread label, summed over every thread that carried it;
///       "tasks" is the label's "pool_blocks", so the rows sum to it.
///   {"type":"anneal_temperature","run":N,"step":N,"temperature":T,
///    "proposed":N,"accepted":N,"uphill_accepted":N,
///    "proposed_m1":N,...,"accepted_m3":N,"accepted_delta":D,
///    "current_cost":C,"best_cost":B,"stall":N}
///   {"type":"solution","area":A,"wirelength":W,"congestion":C,
///    "cost":K,"seconds":S}   (appended by tools, optional)
///
/// Cache hit rates and the region-strategy mix are counters, and the
/// annealer's totals are sums over its "anneal_temperature" records;
/// `write_summary` tabulates them for humans.
///
/// Doubles are printed with %.17g so values round-trip bit-exactly.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/schema.hpp"
#include "obs/trace.hpp"

namespace ficon::obs {

inline constexpr int kTraceSchemaVersion = schema::kVersion;

/// Write the full report as JSON Lines. `tool` goes into the meta line.
void write_jsonl(std::ostream& os, const TraceReport& report,
                 const std::string& tool);

/// Extra "solution" record appended by CLI tools after a run.
void write_solution_jsonl(std::ostream& os, double area, double wirelength,
                          double congestion, double cost, double seconds);

/// Human summary (annealer totals, cache hit ratios, strategy mix, phase
/// calls, times and latency quantiles, per-thread pool activity) via
/// `util/table`.
void write_summary(std::ostream& os, const TraceReport& report);

/// Validate one JSONL line against the schema. Returns false and fills
/// `error` (if non-null) on unknown type, missing field, or wrong field
/// kind.
bool validate_trace_line(const std::string& line, std::string* error);

/// Validate a whole stream: every non-empty line must pass, and the
/// first line must be a meta record with the current schema version.
bool validate_trace(std::istream& is, std::string* error);

/// Outcome of linting one trace stream or file. Values double as
/// `tools/trace_lint` exit codes and are ordered by severity, so a run
/// over many files reduces with max(): an unreadable file is reported
/// even when another file merely violates the schema.
enum class TraceLintResult : int {
  kOk = 0,               ///< parsed and schema-clean
  kSchemaViolation = 1,  ///< JSON parsed, but a record violates the schema
  kIoError = 2,          ///< unreadable file, or text that is not JSON
};

/// Like `validate_trace`, but distinguishes text that fails to parse as
/// JSON (kIoError) from well-formed JSON that violates the schema
/// (kSchemaViolation). `error` gets a position-tagged message.
TraceLintResult lint_trace(std::istream& is, std::string* error);

/// Open and lint `path`; kIoError when the file cannot be opened/read.
TraceLintResult lint_trace_file(const std::string& path, std::string* error);

/// Print the human summary and, when `FICON_TRACE` names an output path,
/// also write the JSONL file there. Shared by the benches and the CLI's
/// no-path mode.
void emit_env_trace(std::ostream& os, const std::string& tool);

}  // namespace ficon::obs
