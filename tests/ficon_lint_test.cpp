// ficon_lint end-to-end: the real tree must lint clean against the
// committed baseline, and a seeded violation of each rule (F001–F008,
// D001–D003, L001–L002) must be caught in a synthetic repo. Runs the
// binary as a subprocess — contract tests on the CLI (output + exit
// codes) — plus unit tests of the v2 analyzer core (tokenizer, layer
// manifest) linked directly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "lint/include_graph.hpp"
#include "lint/tokenizer.hpp"
#include "obs/json.hpp"

namespace fs = std::filesystem;

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string cmd = std::string(FICON_LINT_BINARY) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  LintRun run;
  char buf[4096];
  while (fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// Synthetic repo under TempDir with the scaffolding every tree needs
/// (README + schema registry), torn down on destruction.
class SeededRepo {
 public:
  explicit SeededRepo(const std::string& name)
      : root_(fs::path(::testing::TempDir()) / ("ficon_lint_" + name)) {
    fs::remove_all(root_);
    write("README.md", "# seeded tree\nKnobs: FICON_DOCUMENTED\n");
    write("src/obs/schema.hpp",
          "inline constexpr const char* kRecordTypes[] = {\"meta\"};\n"
          "inline constexpr const char* kCounterNames[] = {\"good_counter\"};\n"
          "inline constexpr const char* kPhaseNames[] = {\"pack\"};\n");
  }
  ~SeededRepo() { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream(path) << content;
  }

  LintRun lint() const { return run_lint("--repo " + root_.string()); }
  LintRun lint(const std::string& extra) const {
    return run_lint("--repo " + root_.string() + " " + extra);
  }
  const fs::path& root() const { return root_; }

 private:
  fs::path root_;
};

TEST(FiconLint, RealTreeIsCleanAgainstCommittedBaseline) {
  const LintRun run = run_lint("--repo " FICON_REPO_DIR);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("clean"), std::string::npos) << run.output;
  // The committed baseline must not have rotted: no stale entries.
  EXPECT_EQ(run.output.find("stale baseline entry"), std::string::npos)
      << run.output;
}

TEST(FiconLint, ListRulesAndUsage) {
  const LintRun rules = run_lint("--list-rules");
  EXPECT_EQ(rules.exit_code, 0);
  for (const char* id :
       {"F001", "F002", "F003", "F004", "F005", "F006", "F007", "F008",
        "D001", "D002", "D003", "L001", "L002"}) {
    EXPECT_NE(rules.output.find(id), std::string::npos) << id;
  }
  EXPECT_EQ(run_lint("--bogus-flag").exit_code, 2);
  EXPECT_EQ(run_lint("--repo /nonexistent/ficon").exit_code, 2);
}

TEST(FiconLint, F001CatchesRawGetenvAndUndocumentedKnob) {
  SeededRepo repo("f001");
  repo.write("src/a.cpp",
             "#include <cstdlib>\n"
             "const char* v = std::getenv(\"FICON_RAW\");\n");
  repo.write("src/b.cpp",
             "int n = env_int(\"FICON_UNDOCUMENTED\", 1);\n"
             "int m = env_int(\"FICON_DOCUMENTED\", 1);\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("F001"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("raw getenv"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("FICON_UNDOCUMENTED"), std::string::npos)
      << run.output;
  // The documented knob must NOT be flagged.
  EXPECT_EQ(run.output.find("FICON_DOCUMENTED"), std::string::npos)
      << run.output;
}

TEST(FiconLint, F002CatchesUnregisteredTraceNames) {
  SeededRepo repo("f002");
  repo.write("src/obs/writer.cpp",
             "void emit(std::ostream& os) {\n"
             "  os << \"{\\\"type\\\":\\\"bogus_record\\\",\\\"v\\\":1}\";\n"
             "  os << \"{\\\"type\\\":\\\"meta\\\",\\\"version\\\":1}\";\n"
             "}\n");
  // The validator's record rows are checked as well.
  repo.write("src/obs/validator.cpp",
             "const std::vector<RecordSchema>& trace_schema() {\n"
             "  static const std::vector<RecordSchema> schema = {\n"
             "      {\"meta\", {{\"version\", T::kNumber}}},\n"
             "      {\"ghost_record\",\n"
             "       {{\"name\", T::kString}}},\n"
             "  };\n"
             "  return schema;\n"
             "}\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("F002"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("bogus_record"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("validator record type \"ghost_record\""),
            std::string::npos)
      << run.output;
  // The registered type must pass.
  EXPECT_EQ(run.output.find("\"meta\""), std::string::npos) << run.output;
}

TEST(FiconLint, F003CatchesDeepIncludesFromExamplesAndBench) {
  SeededRepo repo("f003");
  repo.write("examples/demo.cpp",
             "#include \"ficon.hpp\"\n"
             "#include \"util/env.hpp\"\n");
  repo.write("bench/bench_x.cpp", "#include \"congestion/field.hpp\"\n");
  // Deep includes inside src/ are fine.
  repo.write("src/core/a.cpp", "#include \"util/env.hpp\"\n");
  // Tools get the same rule, with a carve-out for the JSON parser (the
  // JSON-only linters) — but not for other deep headers, src/service/
  // included.
  repo.write("tools/my_lint.cpp",
             "#include \"obs/json.hpp\"\n"
             "#include \"service/session.hpp\"\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("examples/demo.cpp:2: F003"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("bench/bench_x.cpp:1: F003"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("src/core/a.cpp"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("tools/my_lint.cpp:1"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("tools/my_lint.cpp:2: F003"), std::string::npos)
      << run.output;
}

TEST(FiconLint, F004CatchesFloatEqualityButSkipsAssertionsAndComments) {
  SeededRepo repo("f004");
  repo.write("src/x.cpp",
             "bool f(double a) { return a == 1.0; }\n"
             "// a == 1.0 in a comment is fine\n"
             "void g() { EXPECT_EQ(h(), 2.5); }\n"
             "bool k(double a) { return 0.5 != a; }\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/x.cpp:1: F004"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/x.cpp:4: F004"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find(":2: F004"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":3: F004"), std::string::npos) << run.output;
}

TEST(FiconLint, F005CatchesRawRngPrimitives) {
  SeededRepo repo("f005");
  repo.write("src/y.cpp",
             "#include <random>\n"
             "int roll() { std::mt19937 gen(7); return (int)gen(); }\n");
  repo.write("src/util/rng.hpp",
             "#include <random>\n"
             "struct Rng { std::mt19937_64 engine; };\n");  // allowlisted
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/y.cpp:2: F005"), std::string::npos)
      << run.output;
  // The message text mentions rng.hpp; assert no *finding* points there.
  EXPECT_EQ(run.output.find("rng.hpp:"), std::string::npos) << run.output;
}

TEST(FiconLint, F006CatchesMissingAndRedundantOverride) {
  SeededRepo repo("f006");
  repo.write("src/z.hpp",
             "struct Base {\n"
             "  virtual ~Base() = default;\n"  // no base list: not flagged
             "  virtual int f() const = 0;\n"
             "};\n"
             "struct Derived : public Base {\n"
             "  virtual int f() const;\n"        // missing override
             "  virtual int g() const override;\n"  // redundant virtual
             "  int h() const override;\n"       // correct: not flagged
             "};\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/z.hpp:6: F006"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/z.hpp:7: F006"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("redundant"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("z.hpp:2:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("z.hpp:3:"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("z.hpp:8:"), std::string::npos) << run.output;
}

TEST(FiconLint, F007CatchesAdHocSvgEmissionOutsideExp) {
  SeededRepo repo("f007");
  repo.write("src/anneal/dump.cpp",
             "void dump(std::ostream& os) { os << \"<svg width='9'>\"; }\n");
  // src/exp/ owns SVG rendering; tests may build fixtures.
  repo.write("src/exp/writer.cpp",
             "void w(std::ostream& os) { os << \"<svg>\"; }\n");
  repo.write("tests/fixture.cpp", "const char* kSvg = \"<svg>\";\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/anneal/dump.cpp:1: F007"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("src/exp/writer.cpp"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("tests/fixture.cpp"), std::string::npos)
      << run.output;
}

TEST(FiconLint, F008CatchesDeepProbabilityIncludesOutsideCongestion) {
  SeededRepo repo("f008");
  repo.write("src/anneal/cost.cpp", "#include \"congestion/approx.hpp\"\n");
  repo.write("examples/probe.cpp",
             "#include \"src/congestion/path_prob.hpp\"\n");
  repo.write("bench/probe.cpp", "#include \"congestion/approx.hpp\"\n");
  // The probability engine itself and tests keep deep access.
  repo.write("src/congestion/glue.cpp", "#include \"congestion/approx.hpp\"\n");
  repo.write("tests/probe_test.cpp",
             "#include \"congestion/path_prob.hpp\"\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/anneal/cost.cpp:1: F008"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("examples/probe.cpp:1: F008"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("bench/probe.cpp:1: F008"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("prob_kernel.hpp"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("src/congestion/glue.cpp"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("tests/probe_test.cpp"), std::string::npos)
      << run.output;
}

TEST(FiconLint, BaselineSuppressesOnlyJustifiedEntries) {
  SeededRepo repo("baseline");
  repo.write("src/x.cpp", "bool f(double a) { return a == 1.0; }\n");

  // --update-baseline captures the finding but marks it UNREVIEWED...
  const LintRun update = repo.lint("--update-baseline");
  EXPECT_EQ(update.exit_code, 0) << update.output;
  EXPECT_NE(update.output.find("1 suppression"), std::string::npos)
      << update.output;

  // ...and an UNREVIEWED entry does NOT silence the finding.
  const LintRun unreviewed = repo.lint();
  EXPECT_EQ(unreviewed.exit_code, 1) << unreviewed.output;
  EXPECT_NE(unreviewed.output.find("baselined without justification"),
            std::string::npos)
      << unreviewed.output;

  // A human-supplied reason does.
  repo.write(".ficon-lint-baseline.json",
             "{\"suppressions\": [{\"rule\": \"F004\", \"file\": "
             "\"src/x.cpp\", \"token\": "
             "\"bool f(double a) { return a == 1.0; }\", "
             "\"reason\": \"exact sentinel compare\"}]}\n");
  const LintRun justified = repo.lint();
  EXPECT_EQ(justified.exit_code, 0) << justified.output;

  // Fixing the code turns the entry stale — reported, but still exit 0.
  repo.write("src/x.cpp", "bool f(double a) { return a > 1.0; }\n");
  const LintRun stale = repo.lint();
  EXPECT_EQ(stale.exit_code, 0) << stale.output;
  EXPECT_NE(stale.output.find("stale baseline entry"), std::string::npos)
      << stale.output;

  // A corrupt baseline is an I/O error, not a silent pass.
  repo.write(".ficon-lint-baseline.json", "{nope");
  EXPECT_EQ(repo.lint().exit_code, 2);
}

TEST(FiconLint, D001CatchesUnorderedContainersUnderSrcOnly) {
  SeededRepo repo("d001");
  repo.write("src/a.cpp",
             "#include <unordered_map>\n"
             "#include <map>\n"
             "std::unordered_map<int, int> lookup;\n"
             "std::map<int, int> ordered;\n");
  // tools/ may use whatever containers it likes: only src/ affects
  // engine results.
  repo.write("tools/t.cpp", "std::unordered_set<int> scratch;\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/a.cpp:3: D001"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("iteration order"), std::string::npos)
      << run.output;
  // The #include line and the ordered container must NOT be flagged.
  EXPECT_EQ(run.output.find(":1: D001"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":4: D001"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("tools/t.cpp"), std::string::npos) << run.output;
}

TEST(FiconLint, D002CatchesWallClockButNotSteadyClockOrMembers) {
  SeededRepo repo("d002");
  repo.write(
      "src/clock.cpp",
      "#include <chrono>\n"
      "long now() { return std::chrono::system_clock::now()"
      ".time_since_epoch().count(); }\n"
      "long stamp() { return time(nullptr); }\n"
      "double ok(const Stopwatch& s) { return s.time(); }\n"
      "long mono() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/clock.cpp:2: D002"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/clock.cpp:3: D002"), std::string::npos)
      << run.output;
  // Member calls named time() and steady_clock are fine.
  EXPECT_EQ(run.output.find(":4: D002"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":5: D002"), std::string::npos) << run.output;
}

TEST(FiconLint, D003CatchesSharedAccumulationInPoolTasks) {
  SeededRepo repo("d003");
  repo.write("src/core/accum.cpp",
             "void f(ThreadPool& pool) {\n"
             "  double sum = 0.0;\n"
             "  std::vector<double> partial(4, 0.0);\n"
             "  pool.run(4, [&](std::size_t b) {\n"
             "    double local = 0.0;\n"
             "    local += 1.0;\n"
             "    partial[b] += 2.0;\n"
             "    sum += 3.0;\n"
             "  });\n"
             "}\n"
             "void g(BenchRunner& runner) {\n"
             "  double total = 0.0;\n"
             "  runner.run(4, [&](std::size_t b) { total += 1.0; });\n"
             "}\n"
             "void h(ThreadPool& pool, double seed) {\n"
             "  pool.run(2, [=](std::size_t) mutable { seed += 1.0; });\n"
             "}\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Only the &-captured accumulator is shared across tasks.
  EXPECT_NE(run.output.find("src/core/accum.cpp:8: D003"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"sum\""), std::string::npos) << run.output;
  // Body locals and per-block slots follow the sanctioned reduction
  // pattern; .run() on a non-pool receiver and by-value captures are
  // out of scope.
  EXPECT_EQ(run.output.find(":6: D003"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":7: D003"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":13: D003"), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find(":16: D003"), std::string::npos) << run.output;
}

TEST(FiconLint, L001CatchesUndeclaredCrossGroupInclude) {
  SeededRepo repo("l001");
  repo.write(".ficon-layers",
             "base: obs\n"
             "alpha: a -> base\n"
             "beta: b -> alpha\n");
  repo.write("src/a/x.cpp", "#include \"b/y.hpp\"\n");  // alpha->beta: no dep
  repo.write("src/b/y.hpp", "#include \"a/z.hpp\"\n");  // beta->alpha: fine
  repo.write("src/a/z.hpp", "inline int z() { return 0; }\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/a/x.cpp:1: L001"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"alpha\" does not declare a dep on \"beta\""),
            std::string::npos)
      << run.output;
  // The declared edge must not be flagged (the undeclared finding's
  // message mentions src/b/y.hpp as its target, so anchor on file:line).
  EXPECT_EQ(run.output.find("src/b/y.hpp:1:"), std::string::npos)
      << run.output;
}

TEST(FiconLint, L001CatchesModulesMissingFromTheManifest) {
  SeededRepo repo("l001_unmapped");
  // The manifest forgets src/obs/ (seeded by the fixture).
  repo.write(".ficon-layers", "alpha: a\n");
  repo.write("src/a/x.cpp", "inline int x() { return 0; }\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("L001"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("\"obs\" is not declared"), std::string::npos)
      << run.output;
}

TEST(FiconLint, L002CatchesIncludeCycles) {
  SeededRepo repo("l002_files");
  repo.write(".ficon-layers", "base: obs\nalpha: a -> base\n");
  repo.write("src/a/x.hpp", "#include \"a/y.hpp\"\n");
  repo.write("src/a/y.hpp", "#include \"a/x.hpp\"\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("L002"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find(
                "include cycle: src/a/x.hpp -> src/a/y.hpp -> src/a/x.hpp"),
            std::string::npos)
      << run.output;
}

TEST(FiconLint, L002CatchesDeclaredGroupCycles) {
  SeededRepo repo("l002_groups");
  repo.write(".ficon-layers",
             "base: obs\n"
             "alpha: a -> beta\n"
             "beta: b -> alpha\n");
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find(".ficon-layers:1: L002"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("declared group dependencies form a cycle"),
            std::string::npos)
      << run.output;
}

TEST(FiconLint, MalformedLayersManifestIsAUsageError) {
  SeededRepo repo("l_badmanifest");
  repo.write(".ficon-layers", "alpha a b\n");  // missing ':'
  const LintRun run = repo.lint();
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("expected \"group:\""), std::string::npos)
      << run.output;
}

TEST(FiconLint, SarifLogIsWellFormedAndCarriesSuppressions) {
  SeededRepo repo("sarif");
  repo.write("src/x.cpp", "bool f(double a) { return a == 1.0; }\n");
  const fs::path sarif = repo.root() / "out.sarif";

  const LintRun run = repo.lint("--sarif " + sarif.string());
  EXPECT_EQ(run.exit_code, 1) << run.output;

  std::ifstream in(sarif);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = ficon::obs::parse_json(buf.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("version"), nullptr);
  EXPECT_EQ(doc->find("version")->string, "2.1.0");
  const auto* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const auto& r = runs->array[0];
  const auto* driver = r.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->find("name")->string, "ficon_lint");
  EXPECT_EQ(driver->find("rules")->array.size(), 13u);
  const auto* results = r.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 1u);
  const auto& hit = results->array[0];
  EXPECT_EQ(hit.find("ruleId")->string, "F004");
  EXPECT_EQ(hit.find("suppressions"), nullptr);
  const auto* loc = hit.find("locations");
  ASSERT_NE(loc, nullptr);
  ASSERT_EQ(loc->array.size(), 1u);
  const auto* phys = loc->array[0].find("physicalLocation");
  ASSERT_NE(phys, nullptr);
  EXPECT_EQ(phys->find("artifactLocation")->find("uri")->string, "src/x.cpp");
  EXPECT_EQ(phys->find("region")->find("startLine")->number, 1.0);

  // A justified baseline entry turns the result into a suppressed one.
  repo.write(".ficon-lint-baseline.json",
             "{\"suppressions\": [{\"rule\": \"F004\", \"file\": "
             "\"src/x.cpp\", \"token\": "
             "\"bool f(double a) { return a == 1.0; }\", "
             "\"reason\": \"exact sentinel compare\"}]}\n");
  const LintRun clean = repo.lint("--sarif " + sarif.string());
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  std::ifstream in2(sarif);
  std::ostringstream buf2;
  buf2 << in2.rdbuf();
  const auto doc2 = ficon::obs::parse_json(buf2.str(), &error);
  ASSERT_TRUE(doc2.has_value()) << error;
  const auto& hit2 = doc2->find("runs")->array[0].find("results")->array[0];
  const auto* sup = hit2.find("suppressions");
  ASSERT_NE(sup, nullptr);
  ASSERT_EQ(sup->array.size(), 1u);
  EXPECT_EQ(sup->array[0].find("kind")->string, "external");
  EXPECT_EQ(sup->array[0].find("justification")->string,
            "exact sentinel compare");
}

// ---- analyzer-core unit tests (linked against ficon_lint_core) ----

using ficon::lint::TokKind;
using ficon::lint::tokenize;

bool has_token(const ficon::lint::TokenizedSource& src, TokKind kind,
               const std::string& text) {
  for (const auto& t : src.tokens) {
    if (t.kind == kind && t.text == text) return true;
  }
  return false;
}

TEST(LintTokenizer, RawStringContentsStayOutOfTheCodeView) {
  const auto src =
      tokenize("auto s = R\"x(a == 1.0 \"q\\)x\";\nint t = 2;\n");
  // The contents — including the embedded quote and the backslash that
  // would escape it in an ordinary literal — lex as one string token.
  bool found = false;
  for (const auto& t : src.tokens) {
    if (t.kind == TokKind::kString &&
        t.text.find("a == 1.0") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Code view blanks the literal contents; text view keeps them.
  EXPECT_EQ(src.views.code[0].find("1.0"), std::string::npos)
      << src.views.code[0];
  EXPECT_NE(src.views.text[0].find("1.0"), std::string::npos)
      << src.views.text[0];
  // The line after the raw string lexes normally.
  EXPECT_TRUE(has_token(src, TokKind::kIdent, "t"));
}

TEST(LintTokenizer, LineContinuationSplicesInsideTokens) {
  const auto src = tokenize("int fo\\\nobar = 1;\n");
  EXPECT_TRUE(has_token(src, TokKind::kIdent, "foobar"));
  EXPECT_FALSE(has_token(src, TokKind::kIdent, "fo"));
  EXPECT_FALSE(has_token(src, TokKind::kIdent, "obar"));
}

TEST(LintTokenizer, LineCommentContinuesAcrossBackslashNewline) {
  const auto src =
      tokenize("// note \\\nint hidden = 1;\nint visible = 2;\n");
  // The second physical line is still part of the comment.
  EXPECT_FALSE(has_token(src, TokKind::kIdent, "hidden"));
  EXPECT_TRUE(has_token(src, TokKind::kIdent, "visible"));
  EXPECT_EQ(src.views.code[1].find("hidden"), std::string::npos)
      << src.views.code[1];
}

TEST(LintTokenizer, CommentsContainingCodeAreBlankedInBothViews) {
  const auto src =
      tokenize("/* a == 1.0 */ int x = 0;\nconst char* s = \"b == 2.0\";\n");
  EXPECT_EQ(src.views.code[0].find("1.0"), std::string::npos);
  EXPECT_EQ(src.views.text[0].find("1.0"), std::string::npos);
  EXPECT_TRUE(has_token(src, TokKind::kIdent, "x"));
  // Ordinary string contents: blanked in code, kept in text.
  EXPECT_EQ(src.views.code[1].find("2.0"), std::string::npos);
  EXPECT_NE(src.views.text[1].find("2.0"), std::string::npos);
}

TEST(LintTokenizer, MultiCharPunctuatorsAndDigitSeparators) {
  const auto src = tokenize("x += 1'000'000;\ny <<= 2;\np->q;\n");
  EXPECT_TRUE(has_token(src, TokKind::kPunct, "+="));
  EXPECT_TRUE(has_token(src, TokKind::kPunct, "<<="));
  EXPECT_TRUE(has_token(src, TokKind::kPunct, "->"));
  EXPECT_TRUE(has_token(src, TokKind::kNumber, "1'000'000"));
}

TEST(LintLayers, ManifestParsesGroupsMembersAndDeps) {
  std::string error;
  const auto groups = ficon::lint::parse_layers(
      "# comment\n"
      "base: geom util  # trailing comment\n"
      "core: core anneal -> base\n",
      &error);
  ASSERT_TRUE(groups.has_value()) << error;
  ASSERT_EQ(groups->size(), 2u);
  EXPECT_EQ((*groups)[0].name, "base");
  EXPECT_EQ((*groups)[0].members,
            (std::vector<std::string>{"geom", "util"}));
  EXPECT_TRUE((*groups)[0].deps.empty());
  EXPECT_EQ((*groups)[1].name, "core");
  EXPECT_EQ((*groups)[1].deps, (std::vector<std::string>{"base"}));
}

TEST(LintLayers, ManifestRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ficon::lint::parse_layers("base geom\n", &error));
  EXPECT_NE(error.find("expected"), std::string::npos);
  EXPECT_FALSE(ficon::lint::parse_layers("a: m\nb: m\n", &error));
  EXPECT_NE(error.find("more than one group"), std::string::npos);
  EXPECT_FALSE(ficon::lint::parse_layers("a: m -> zz\n", &error));
  EXPECT_NE(error.find("unknown group"), std::string::npos);
  EXPECT_FALSE(ficon::lint::parse_layers("a: m -> a\n", &error));
  EXPECT_NE(error.find("depends on itself"), std::string::npos);
  EXPECT_FALSE(ficon::lint::parse_layers("a:\n", &error));
  EXPECT_NE(error.find("no member modules"), std::string::npos);
}

}  // namespace
