// trace_lint — validate a FICON JSONL trace file against the schema.
//
// Usage:
//   trace_lint FILE...
//
// For each file: parses every line as JSON, checks the per-record schema
// (known "type", required fields, correct field kinds, registered
// counter and phase names, phase buckets that sum to their "calls") and
// that the first record is a meta record carrying the current schema
// version (4).
//
// Exit codes (see obs::TraceLintResult) let CI tell a malformed trace
// from an unreadable one:
//   0 — every file parsed and passed the schema
//   1 — at least one schema violation (well-formed JSON, bad record)
//   2 — at least one I/O or JSON parse error (unreadable file, not
//       JSON), or a usage error; takes precedence over 1
#include <algorithm>
#include <iostream>
#include <string>

#include "ficon.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: trace_lint FILE...\n";
    return static_cast<int>(ficon::obs::TraceLintResult::kIoError);
  }
  ficon::obs::TraceLintResult worst = ficon::obs::TraceLintResult::kOk;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::string error;
    const ficon::obs::TraceLintResult result =
        ficon::obs::lint_trace_file(path, &error);
    if (result == ficon::obs::TraceLintResult::kOk) {
      std::cout << path << ": ok\n";
    } else {
      std::cerr << path << ": " << error << '\n';
      worst = std::max(worst, result);
    }
  }
  return static_cast<int>(worst);
}
