// Subprocess contract tests for ficon_cli's option parsing and service
// mode (the CLI face of the service layer): the parser must distinguish
// "missing value" from "unknown flag", validate numeric arguments, and
// exit 2 with a targeted message on every usage error — previously a
// trailing `--seed` crashed and `--seeds` was silently mis-parsed as an
// abbreviation of `--seed`.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/mcnc.hpp"
#include "circuit/parser.hpp"
#include "obs/json.hpp"

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(FICON_CLI_BINARY) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TEST(FiconCliTest, TrailingFlagReportsMissingValueNotUnknownOption) {
  const CliRun run = run_cli("--circuit apte --seed");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("'--seed' requires a value"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("unknown option"), std::string::npos)
      << run.output;
}

TEST(FiconCliTest, UnknownOptionIsReportedByName) {
  const CliRun run = run_cli("--bogus 1");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("unknown option '--bogus'"), std::string::npos)
      << run.output;
}

TEST(FiconCliTest, NonNumericValueIsRejected) {
  const CliRun run = run_cli("--alpha 1.5x");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("'--alpha' needs a number"), std::string::npos)
      << run.output;
  // Negative seeds must not wrap around through strtoull.
  const CliRun negative = run_cli("--seed -3");
  EXPECT_EQ(negative.exit_code, 2);
  EXPECT_NE(negative.output.find("non-negative integer"), std::string::npos)
      << negative.output;
}

TEST(FiconCliTest, OutOfRangeAndInvalidEnumValuesAreRejected) {
  EXPECT_EQ(run_cli("--seeds 0 --json").exit_code, 2);
  EXPECT_EQ(run_cli("--seeds 5000 --json").exit_code, 2);
  EXPECT_EQ(run_cli("--grid -5").exit_code, 2);
  EXPECT_EQ(run_cli("--effort 0").exit_code, 2);
  const CliRun model = run_cli("--model irr");
  EXPECT_EQ(model.exit_code, 2);
  EXPECT_NE(model.output.find("unknown model 'irr'"), std::string::npos)
      << model.output;
  EXPECT_EQ(run_cli("--engine fast").exit_code, 2);
  EXPECT_EQ(run_cli("--op polish --json").exit_code, 2);
}

TEST(FiconCliTest, HelpPrintsUsageAndExitsZero) {
  const CliRun run = run_cli("--help");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.rfind("usage: ficon_cli", 0), 0u) << run.output;
  for (const char* option : {"--circuit", "--effort", "--heatmap-features",
                             "--json", "--connect", "--help"}) {
    EXPECT_NE(run.output.find(option), std::string::npos) << option;
  }
  EXPECT_NE(run.output.find("Exit codes"), std::string::npos) << run.output;
  // --help wins over the options before it; nothing is run.
  EXPECT_EQ(run_cli("--circuit apte --json --help").output, run.output);
}

TEST(FiconCliTest, EffortWhoseMoveCountOverflowsIsAnError) {
  // 10 * effort * modules used to be cast to int unchecked (undefined
  // behavior); a 1e12 effort then ran 10 moves per temperature.
  const CliRun human = run_cli("--circuit apte --effort 1e12 --quiet");
  EXPECT_EQ(human.exit_code, 2) << human.output;
  EXPECT_NE(human.output.find("effort too large"), std::string::npos)
      << human.output;
  const CliRun json = run_cli("--circuit apte --effort 1e12 --json");
  EXPECT_EQ(json.exit_code, 1) << json.output;
  EXPECT_NE(json.output.find("\"status\":\"error\""), std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("effort too large"), std::string::npos)
      << json.output;
}

TEST(FiconCliTest, NonFiniteMetricsAreAnError) {
  // apte with apte_m0 at 1e300 x 1e300 overflows the area. --json must
  // print a parseable "error" line, not an "ok" line with bare inf/nan
  // tokens, and the human path must stop instead of printing "area inf".
  // No congestion model: the grid models cast such geometry to int
  // before any metric exists, which only a range bound can prevent.
  std::ostringstream native;
  ficon::save_netlist(ficon::make_mcnc("apte"), native);
  std::string text = native.str();
  const std::size_t at = text.find("module apte_m0 ");
  text.replace(at, text.find('\n', at) - at, "module apte_m0 1e300 1e300");
  const std::string path =
      ::testing::TempDir() + "ficon_cli_test_overflow.ficon";
  std::ofstream(path) << text;

  const CliRun json =
      run_cli("--circuit " + path + " --model none --json --op evaluate");
  EXPECT_EQ(json.exit_code, 1) << json.output;
  const std::size_t line_at = json.output.find("{\"op\"");
  ASSERT_NE(line_at, std::string::npos) << json.output;
  const std::string line =
      json.output.substr(line_at, json.output.find('\n', line_at) - line_at);
  std::string error;
  const auto parsed = ficon::obs::parse_json(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error << ": " << line;
  const ficon::obs::JsonValue* status = parsed->find("status");
  ASSERT_NE(status, nullptr) << line;
  EXPECT_EQ(status->string, "error") << line;
  EXPECT_NE(json.output.find("area is not finite"), std::string::npos)
      << json.output;

  const CliRun human =
      run_cli("--circuit " + path + " --model none --effort 0.01 --quiet");
  EXPECT_NE(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("normalization area is not finite"),
            std::string::npos)
      << human.output;
  EXPECT_EQ(human.output.find("area inf"), std::string::npos) << human.output;
}

TEST(FiconCliTest, PitchTooFineForItsLatticeIsAnError) {
  // A lattice axis above kMaxLatticeCells used to be cast to int, which is
  // undefined: gcc gave 1x1 lattices, and the first input printed "ok"
  // with a congestion of 10.48 (0.00376 at the default 30 um). The
  // second one's fixed grid passes the per-axis bound, but its 5.3e10
  // cells used to end in std::bad_alloc.
  for (const char* args :
       {"--circuit ami33 --grid 1e-30 --json --op evaluate",
        "--circuit ami33 --model fixed --grid 0.01 --json --op evaluate"}) {
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.exit_code, 1) << args << "\n" << run.output;
    EXPECT_NE(run.output.find("\"status\":\"error\""), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("pitch too fine"), std::string::npos)
        << run.output;
  }
}

TEST(FiconCliTest, ServiceKnobsRequireJsonMode) {
  const CliRun run = run_cli("--circuit apte --op evaluate");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("--json"), std::string::npos) << run.output;
  // Exports are mutually exclusive with --json output.
  EXPECT_EQ(run_cli("--json --svg out.svg").exit_code, 2);
}

TEST(FiconCliTest, UnknownCircuitExitsTwo) {
  const CliRun run = run_cli("--circuit no_such_circuit --json --op evaluate");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("cannot load 'no_such_circuit'"),
            std::string::npos)
      << run.output;
}

TEST(FiconCliTest, JsonEvaluatePrintsOneCanonicalLine) {
  const CliRun run = run_cli("--circuit apte --op evaluate --json");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output.rfind("{\"op\":\"evaluate\"", 0), 0u) << run.output;
  EXPECT_NE(run.output.find("\"circuit\":\"apte\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"status\":\"ok\""), std::string::npos)
      << run.output;
  // Exactly one line, and no wall-clock field that would break diffing.
  EXPECT_EQ(run.output.find('\n'), run.output.size() - 1) << run.output;
  EXPECT_EQ(run.output.find("seconds"), std::string::npos) << run.output;
}

TEST(FiconCliTest, ConnectWithoutDaemonExitsThree) {
  const CliRun run =
      run_cli("--circuit apte --connect /tmp/ficon_cli_test_no_daemon.sock");
  EXPECT_EQ(run.exit_code, 3);
  EXPECT_NE(run.output.find("connect"), std::string::npos) << run.output;
}

}  // namespace
