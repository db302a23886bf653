// Subprocess contract tests for ficon_cli's option parsing and service
// mode (satellite of ROADMAP item 1): the parser must distinguish
// "missing value" from "unknown flag", validate numeric arguments, and
// exit 2 with a targeted message on every usage error — previously a
// trailing `--seed` crashed and `--seeds` was silently mis-parsed as an
// abbreviation of `--seed`.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

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
