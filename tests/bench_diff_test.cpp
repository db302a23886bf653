// bench_diff end-to-end: the perf-regression gate's CLI contract. A
// report must diff clean against itself, a synthetic regression beyond
// the threshold must fail with exit 1, unreadable input must fail with
// exit 2, and the filter/threshold/require flags must behave as
// documented — CI leans on exactly these codes. The same codes hold for
// the --lint structural check of single reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct DiffRun {
  int exit_code = -1;
  std::string output;
};

DiffRun run_diff(const std::string& args) {
  const std::string cmd =
      std::string(FICON_BENCH_DIFF_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  DiffRun run;
  char buf[4096];
  while (fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Writes bench-report fixtures under TempDir and cleans up after itself.
class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "bench_diff_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& json) {
    const fs::path path = dir_ / name;
    std::ofstream(path) << json;
    return path.string();
  }

  /// A minimal but schema-complete scale-style report. The knobs let
  /// each test dial in one divergence.
  static std::string report(double moves_per_s, double pack_ms,
                            const std::string& fingerprint,
                            const std::string& manifest_sha = "abc") {
    return std::string("{\"schema\": \"ficon-bench-v1\", \"bench\": "
                       "\"scale\",\n \"manifest\": {\"git_sha\": \"") +
           manifest_sha +
           "\", \"threads\": 1},\n \"meta\": {\"seed\": 7, \"moves\": 50},\n"
           " \"rows\": [{\"tier\": \"n100\", \"fingerprint\": \"" +
           fingerprint + "\", \"moves_per_s\": " +
           std::to_string(moves_per_s) +
           ", \"pack_ms\": " + std::to_string(pack_ms) + "}]}\n";
  }

 private:
  fs::path dir_;
};

TEST_F(BenchDiffTest, SelfCompareIsClean) {
  const std::string path = write("base.json", report(1000.0, 5.0, "f1"));
  const DiffRun run = run_diff(path + " " + path);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 regression(s) — clean"), std::string::npos)
      << run.output;
  // The manifest is surfaced for the log, never compared.
  EXPECT_NE(run.output.find("manifest (baseline): git_sha=abc"),
            std::string::npos)
      << run.output;
}

TEST_F(BenchDiffTest, TwentyPercentThroughputDropFailsDefaultThreshold) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  const std::string cur = write("cur.json", report(800.0, 5.0, "f1"));
  const DiffRun run = run_diff(base + " " + cur);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("moves_per_s"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("1 regression(s)"), std::string::npos)
      << run.output;

  // Higher-better direction: a 20% throughput GAIN is not a regression.
  const DiffRun gain = run_diff(cur + " " + base);
  EXPECT_EQ(gain.exit_code, 0) << gain.output;
}

TEST_F(BenchDiffTest, LowerBetterAndThresholdFlagsApply) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  const std::string cur = write("cur.json", report(1000.0, 6.0, "f1"));
  // pack_ms rose ~16.7%: over the 10% default...
  EXPECT_EQ(run_diff(base + " " + cur).exit_code, 1);
  // ...inside a looser global threshold...
  EXPECT_EQ(run_diff("--threshold 0.3 " + base + " " + cur).exit_code, 0);
  // ...and a per-metric override beats the global default.
  EXPECT_EQ(run_diff("--metric pack_ms=0.5 " + base + " " + cur).exit_code,
            0);
  EXPECT_EQ(
      run_diff("--threshold 0.3 --metric pack_ms=0.01 " + base + " " + cur)
          .exit_code,
      1);
}

TEST_F(BenchDiffTest, SkipAndOnlyFilterMetrics) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  const std::string cur = write("cur.json", report(800.0, 5.0, "f1"));
  EXPECT_EQ(run_diff("--skip moves_per_s " + base + " " + cur).exit_code, 0);
  EXPECT_EQ(run_diff("--only pack_ms " + base + " " + cur).exit_code, 0);
  EXPECT_EQ(run_diff("--only moves_per_s " + base + " " + cur).exit_code, 1);
}

TEST_F(BenchDiffTest, IdentityStringMismatchFailsRegardlessOfThreshold) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  const std::string cur = write("cur.json", report(1000.0, 5.0, "f2"));
  const DiffRun run = run_diff("--threshold 99 " + base + " " + cur);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("identity field changed"), std::string::npos)
      << run.output;
}

TEST_F(BenchDiffTest, ManifestDivergenceIsNotARegression) {
  const std::string base =
      write("base.json", report(1000.0, 5.0, "f1", "sha-one"));
  const std::string cur =
      write("cur.json", report(1000.0, 5.0, "f1", "sha-two"));
  const DiffRun run = run_diff(base + " " + cur);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST_F(BenchDiffTest, RequireEnforcesKeyPresence) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  EXPECT_EQ(run_diff("--require fingerprint,seed " + base + " " + base)
                .exit_code,
            0);
  const DiffRun missing =
      run_diff("--require final_cost " + base + " " + base);
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
  EXPECT_NE(missing.output.find("required key \"final_cost\" missing"),
            std::string::npos)
      << missing.output;
}

TEST_F(BenchDiffTest, SchemaDriftAndNameMismatchFail) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  // A dropped metric is schema drift even when nothing regressed.
  const std::string dropped = write(
      "dropped.json",
      "{\"schema\": \"ficon-bench-v1\", \"bench\": \"scale\",\n"
      " \"meta\": {\"seed\": 7, \"moves\": 50},\n"
      " \"rows\": [{\"tier\": \"n100\", \"fingerprint\": \"f1\","
      " \"moves_per_s\": 1000.0}]}\n");
  const DiffRun drift = run_diff(base + " " + dropped);
  EXPECT_EQ(drift.exit_code, 1) << drift.output;
  EXPECT_NE(drift.output.find("dropped from current report"),
            std::string::npos)
      << drift.output;

  const std::string other = write(
      "other.json",
      "{\"schema\": \"ficon-bench-v1\", \"bench\": \"incremental\",\n"
      " \"meta\": {}, \"rows\": [{\"threads\": 1}]}\n");
  const DiffRun renamed = run_diff(base + " " + other);
  EXPECT_EQ(renamed.exit_code, 1) << renamed.output;
  EXPECT_NE(renamed.output.find("\"bench\" name"), std::string::npos)
      << renamed.output;
}

TEST_F(BenchDiffTest, AllFailuresAreReportedInOneRun) {
  // The gate must not stop at the first problem: a rename, a dropped row,
  // and a metric regression in the surviving row all surface together, so
  // one CI run shows the whole damage.
  const std::string base = write(
      "base.json",
      "{\"schema\": \"ficon-bench-v1\", \"bench\": \"scale\",\n"
      " \"meta\": {\"seed\": 7, \"moves\": 50},\n"
      " \"rows\": [{\"tier\": \"n100\", \"fingerprint\": \"f1\","
      " \"moves_per_s\": 1000.0, \"pack_ms\": 5.0},\n"
      "          {\"tier\": \"n200\", \"fingerprint\": \"f2\","
      " \"moves_per_s\": 500.0, \"pack_ms\": 9.0}]}\n");
  const std::string cur = write(
      "cur.json",
      "{\"schema\": \"ficon-bench-v1\", \"bench\": \"renamed\",\n"
      " \"meta\": {\"seed\": 7, \"moves\": 50},\n"
      " \"rows\": [{\"tier\": \"n100\", \"fingerprint\": \"f1\","
      " \"moves_per_s\": 700.0, \"pack_ms\": 5.0}]}\n");
  const DiffRun run = run_diff(base + " " + cur);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("\"bench\" name"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("row count changed: 2 -> 1"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("moves_per_s"), std::string::npos) << run.output;
}

TEST_F(BenchDiffTest, UnreadableInputIsExitTwo) {
  const std::string base = write("base.json", report(1000.0, 5.0, "f1"));
  EXPECT_EQ(run_diff(base + " /nonexistent/BENCH.json").exit_code, 2);
  const std::string garbage = write("garbage.json", "$$ not json $$\n");
  EXPECT_EQ(run_diff(base + " " + garbage).exit_code, 2);
  // Valid JSON, wrong schema tag: a schema problem (1), not I/O (2).
  const std::string wrong = write("wrong.json", "{\"schema\": \"v9\"}\n");
  EXPECT_EQ(run_diff(base + " " + wrong).exit_code, 1);
  // Flag misuse is exit 2 as well.
  EXPECT_EQ(run_diff("--bogus " + base + " " + base).exit_code, 2);
  EXPECT_EQ(run_diff(base).exit_code, 2);
}

TEST_F(BenchDiffTest, LintAcceptsACleanReport) {
  const std::string path = write("clean.json", report(1000.0, 5.0, "f1"));
  const DiffRun run =
      run_diff("--lint " + path + " --require tier,fingerprint");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("1 file(s) clean"), std::string::npos)
      << run.output;
}

TEST_F(BenchDiffTest, LintFlagsEachStructuralViolation) {
  struct Case {
    std::string name;
    std::string json;
    std::string flags;
    std::string message;
  };
  const std::string head =
      "{\"schema\": \"ficon-bench-v1\", \"bench\": \"scale\",\n"
      " \"meta\": {\"seed\": 7},\n \"rows\": ";
  const std::vector<Case> cases = {
      {"schema",
       "{\"schema\": \"v9\", \"bench\": \"scale\", \"meta\": {},"
       " \"rows\": [{\"a\": 1}]}\n",
       "", "not a ficon-bench-v1 report"},
      {"empty_rows", head + "[]}\n", "", "\"rows\" must not be empty"},
      {"non_scalar", head + "[{\"a\": [1, 2]}]}\n", "",
       "must be a number, string, or null"},
      {"key_drift", head + "[{\"a\": 1, \"b\": 2}, {\"a\": 3}]}\n", "",
       "key set differs from rows[0]"},
      {"missing_required", head + "[{\"a\": 1}]}\n", "--require a,b ",
       "missing required key \"b\""},
  };
  for (const Case& c : cases) {
    const std::string path = write(c.name + ".json", c.json);
    const DiffRun run = run_diff("--lint " + c.flags + path);
    EXPECT_EQ(run.exit_code, 1) << c.name << "\n" << run.output;
    EXPECT_NE(run.output.find(c.message), std::string::npos)
        << c.name << "\n" << run.output;
  }
}

TEST_F(BenchDiffTest, LintUnreadableInputIsExitTwo) {
  EXPECT_EQ(run_diff("--lint /nonexistent/BENCH.json").exit_code, 2);
  const std::string garbage = write("garbage.json", "$$ not json $$\n");
  EXPECT_EQ(run_diff("--lint " + garbage).exit_code, 2);
  EXPECT_EQ(run_diff("--lint").exit_code, 2);
}

}  // namespace
