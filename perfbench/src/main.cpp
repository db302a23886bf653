// ficon benchmark runner: runs one workload and prints its metrics.
//
//   ficon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Human-readable lines come first ("# ..." notes, then one
// "<metric> <value> <unit>" line per metric); the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "ficon_perfbench: " << problem
            << "\nusage: ficon_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) {
    std::cerr << ' ' << w;
  }
  std::cerr << '\n';
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.trace = value == "1";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "ficon_perfbench: " << options.workload << ": " << e.what()
              << '\n';
    return 1;
  }

  // A non-finite metric is a failed output check, printed as 0 so the
  // result line stays valid JSON.
  for (perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.check(false, m.name + " is not finite");
      m.value = 0.0;
    }
  }

  std::cout << "# workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << perfbench::fmt_num(options.seconds)
            << " trace=" << (options.trace ? 1 : 0) << '\n';
  for (const std::string& note : report.notes) {
    std::cout << "# " << note << '\n';
  }
  for (const std::string& failure : report.failures) {
    std::cout << "# FAILED: " << failure << '\n';
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::cout << m.name << ' ' << perfbench::fmt_num(m.value) << ' ' << m.unit
              << '\n';
  }
  const double error_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::cout << "error_rate " << perfbench::fmt_num(error_rate) << " ratio ("
            << report.failed << " of " << report.attempted << ")\n";

  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + json_escape(m.name) + "\": {\"value\": " +
            perfbench::fmt_num(m.value) + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
