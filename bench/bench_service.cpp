// Service-layer throughput bench (ROADMAP item 1): one-shot vs
// session-amortized request serving.
//
// The one-shot column models today's scripting loop around ficon_cli:
// every request re-parses the circuit from disk and rebuilds the packer /
// decomposer caches before doing any work. The session column is the
// EngineSession path ficond serves: parse once, keep per-executor caches
// warm, fan requests out across the executor pool. Two request mixes:
//
//   * evaluate — pack + decompose + IR congestion of a given Polish
//     expression (the cheap interactive op, dominated by setup cost in
//     one-shot mode). Expressions are a deterministic random-move walk
//     from the initial expression, identical across modes.
//   * anneal   — full SA runs at low effort, one seed per request (the
//     heavyweight op; the session wins by running requests concurrently).
//
// Rows: {mode, op, requests, total_ms, requests_per_s}; meta carries the
// session/one-shot speedup per op. Results go to stdout (TextTable) and
// BENCH_service.json ("ficon-bench-v1", tools/bench_diff --lint validates).
//
// Knobs: FICON_SERVICE_REQUESTS (evaluate requests, default 64),
// FICON_SERVICE_ANNEALS (anneal requests, default 8), FICON_SEED,
// FICON_THREADS (executor count), FICON_BENCH_OUT.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ficon.hpp"

using namespace ficon;

namespace {

/// Deterministic request mix: expression i is i random moves down one
/// RNG stream from the initial expression. Both modes score the same
/// expressions in the same order.
std::vector<std::string> make_expressions(const Netlist& netlist, int count,
                                          std::uint64_t seed) {
  std::vector<std::string> expressions;
  expressions.reserve(static_cast<std::size_t>(count));
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    expressions.push_back(expr.to_string());
    expr.random_move(rng);
  }
  return expressions;
}

service::Request evaluate_request(const std::string& expression) {
  service::Request request;
  request.kind = service::RequestKind::kEvaluate;
  request.objective.gamma = 0.4;
  request.objective.model = CongestionModelKind::kIrregularGrid;
  request.objective.irregular.grid_w = 30.0;
  request.objective.irregular.grid_h = 30.0;
  request.expression = expression;
  return request;
}

service::Request anneal_request(std::uint64_t seed, double effort) {
  service::Request request;
  request.kind = service::RequestKind::kAnneal;
  request.objective.gamma = 0.4;
  request.objective.model = CongestionModelKind::kIrregularGrid;
  request.objective.irregular.grid_w = 30.0;
  request.objective.irregular.grid_h = 30.0;
  request.seed = seed;
  request.effort = effort;
  return request;
}

}  // namespace

int main() {
  const int evaluates = std::max(1, env_int("FICON_SERVICE_REQUESTS", 64));
  const int anneals = std::max(1, env_int("FICON_SERVICE_ANNEALS", 8));
  const auto seed = static_cast<std::uint64_t>(env_int("FICON_SEED", 7));
  const double effort = 0.05;
  const std::string circuit = "ami33";

  const Netlist netlist = make_mcnc(circuit);
  // One-shot mode re-loads the circuit from disk per request, like a
  // shell loop around ficon_cli would.
  const std::string netlist_path = "BENCH_service_circuit.ficon";
  {
    std::ofstream out(netlist_path);
    save_netlist(netlist, out);
  }
  const std::vector<std::string> expressions =
      make_expressions(netlist, evaluates, seed);

  std::cout << "Service throughput — " << circuit << ", " << evaluates
            << " evaluate + " << anneals << " anneal requests, "
            << ThreadPool::env_threads() << " workers\n";

  bench::BenchReport report("service");
  report.manifest("circuit", circuit);
  report.manifest("fingerprint", std::to_string(netlist_fingerprint(netlist)));
  report.meta("seed", static_cast<long long>(seed));
  report.meta("evaluate_requests", static_cast<long long>(evaluates));
  report.meta("anneal_requests", static_cast<long long>(anneals));
  report.meta("anneal_effort", effort);

  TextTable table({"mode", "op", "requests", "total (ms)", "req/s"});
  const auto emit = [&](const std::string& mode, const std::string& op,
                        int requests, double total_ms) {
    const double per_s = requests / (total_ms / 1e3);
    table.add_row({mode, op, std::to_string(requests),
                   fmt_fixed(total_ms, 1), fmt_fixed(per_s, 1)});
    report.begin_row();
    report.value("mode", mode);
    report.value("op", op);
    report.value("requests", static_cast<long long>(requests));
    report.value("total_ms", total_ms);
    report.value("requests_per_s", per_s);
    return total_ms;
  };

  // --- evaluate: one-shot (parse per request) vs session (parse once).
  Stopwatch sw;
  for (int i = 0; i < evaluates; ++i) {
    const Netlist fresh = load_netlist(netlist_path);
    const service::Reply reply =
        service::run_oneshot(fresh, evaluate_request(expressions[
            static_cast<std::size_t>(i)]));
    FICON_REQUIRE(reply.status == service::ReplyStatus::kOk,
                "one-shot evaluate failed");
  }
  const double oneshot_eval_ms =
      emit("one_shot", "evaluate", evaluates, sw.milliseconds());

  const std::size_t capacity =
      static_cast<std::size_t>(evaluates + anneals) + 16;
  sw.reset();
  double session_eval_ms = 0.0;
  double session_anneal_ms = 0.0;
  {
    service::SessionOptions options;
    options.queue_capacity = capacity;
    service::EngineSession session(load_netlist(netlist_path), options);
    std::vector<service::EngineSession::Ticket> tickets;
    tickets.reserve(expressions.size());
    for (const std::string& expression : expressions) {
      tickets.push_back(session.submit(evaluate_request(expression)));
    }
    for (const service::EngineSession::Ticket ticket : tickets) {
      FICON_REQUIRE(ticket != 0, "session evaluate rejected");
      FICON_REQUIRE(session.wait(ticket).status == service::ReplyStatus::kOk,
                  "session evaluate failed");
    }
    session_eval_ms =
        emit("session", "evaluate", evaluates, sw.milliseconds());

    // --- anneal: serial one-shot runs vs concurrent session shards.
    sw.reset();
    for (int i = 0; i < anneals; ++i) {
      const Netlist fresh = load_netlist(netlist_path);
      const service::Reply reply = service::run_oneshot(
          fresh, anneal_request(seed + static_cast<std::uint64_t>(i),
                                effort));
      FICON_REQUIRE(reply.status == service::ReplyStatus::kOk,
                  "one-shot anneal failed");
    }
    const double oneshot_anneal_ms =
        emit("one_shot", "anneal", anneals, sw.milliseconds());

    sw.reset();
    tickets.clear();
    for (int i = 0; i < anneals; ++i) {
      tickets.push_back(session.submit(
          anneal_request(seed + static_cast<std::uint64_t>(i), effort)));
    }
    for (const service::EngineSession::Ticket ticket : tickets) {
      FICON_REQUIRE(ticket != 0, "session anneal rejected");
      FICON_REQUIRE(session.wait(ticket).status == service::ReplyStatus::kOk,
                  "session anneal failed");
    }
    session_anneal_ms = emit("session", "anneal", anneals, sw.milliseconds());

    report.meta("speedup_evaluate", oneshot_eval_ms / session_eval_ms);
    report.meta("speedup_anneal", oneshot_anneal_ms / session_anneal_ms);
  }

  table.print(std::cout);
  std::remove(netlist_path.c_str());
  const std::string path = report.write_file();
  std::cout << "# wrote " << path << " (" << report.row_count()
            << " rows; schema ficon-bench-v1)\n";
  return 0;
}
