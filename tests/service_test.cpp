// EngineSession contract tests (the service layer):
//
//   * session executors are bit-identical to the serial one-shot path at
//     every worker count (1/2/4/8) for both evaluate and sharded anneal
//     requests — the service-layer determinism guarantee,
//   * backpressure: the submit that would overflow the queued-shard
//     budget is rejected synchronously, deterministically, with ticket 0,
//   * cancellation mid-anneal stops cooperatively, returns best-so-far,
//     and leaves the session serviceable,
//   * the protocol codec round-trips requests and replies bit-exactly.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/mcnc.hpp"
#include "circuit/parser.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/rng.hpp"

namespace {

using namespace ficon;
using service::EngineSession;
using service::Reply;
using service::ReplyStatus;
using service::Request;
using service::RequestKind;
using service::SeedResult;
using service::SessionOptions;

Request anneal_request(std::uint64_t seed, int seeds, double effort) {
  Request request;
  request.kind = RequestKind::kAnneal;
  request.objective.gamma = 0.4;
  request.objective.model = CongestionModelKind::kIrregularGrid;
  request.objective.irregular.grid_w = 60.0;
  request.objective.irregular.grid_h = 60.0;
  request.seed = seed;
  request.seeds = seeds;
  request.effort = effort;
  return request;
}

/// An anneal schedule that runs for tens of thousands of cheap
/// temperatures — long enough that a cancel() issued milliseconds after
/// the run starts always lands mid-run (the cancel poll fires at every
/// temperature step).
Request slow_anneal_request() {
  Request request = anneal_request(3, 1, 1.0);
  request.anneal.moves_per_temperature = 20;
  request.anneal.cooling = 0.999;
  request.anneal.stop_temperature_ratio = 1e-12;
  request.anneal.max_stall_temperatures = 1 << 30;
  return request;
}

void expect_same_results(const Reply& expected, const Reply& actual) {
  ASSERT_EQ(expected.status, actual.status);
  ASSERT_EQ(expected.seeds.size(), actual.seeds.size());
  for (std::size_t i = 0; i < expected.seeds.size(); ++i) {
    const SeedResult& e = expected.seeds[i];
    const SeedResult& a = actual.seeds[i];
    EXPECT_EQ(e.seed, a.seed) << "seed index " << i;
    // Bit-exact, not approximate: the session executors must reproduce
    // the serial path double for double.
    EXPECT_EQ(e.metrics.area, a.metrics.area) << "seed index " << i;
    EXPECT_EQ(e.metrics.wirelength, a.metrics.wirelength)
        << "seed index " << i;
    EXPECT_EQ(e.metrics.congestion, a.metrics.congestion)
        << "seed index " << i;
    EXPECT_EQ(e.metrics.cost, a.metrics.cost) << "seed index " << i;
    EXPECT_EQ(e.representation, a.representation) << "seed index " << i;
    EXPECT_EQ(e.cancelled, a.cancelled) << "seed index " << i;
  }
}

TEST(ServiceHelpers, ParsePolishExpressionRoundTrips) {
  const PolishExpression expr = service::parse_polish_expression("0 1 V 2 H");
  EXPECT_EQ(expr.to_string(), "0 1 V 2 H");
  EXPECT_EQ(expr.module_count(), 3);
  EXPECT_THROW(service::parse_polish_expression("0 1 X"),
               std::invalid_argument);
  EXPECT_THROW(service::parse_polish_expression("0 1"),
               std::invalid_argument);  // missing operator
  EXPECT_THROW(service::parse_polish_expression(""), std::invalid_argument);
}

TEST(ServiceHelpers, ShardSeedsMatchTheSeedSweepDerivation) {
  Request request = anneal_request(9, 3, 1.0);
  const std::vector<std::uint64_t> seeds = service::shard_seeds(request);
  ASSERT_EQ(seeds.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(seeds[static_cast<std::size_t>(s)],
              SplitMix64(9 + static_cast<std::uint64_t>(s)).next());
  }
  // A single seed is used directly — the ficon_cli --seed contract.
  request.seeds = 1;
  EXPECT_EQ(service::shard_seeds(request),
            std::vector<std::uint64_t>{9});
}

TEST(ServiceSession, EvaluateBitIdenticalToOneShotAtEveryWorkerCount) {
  const Netlist netlist = make_mcnc("apte");
  Request request;
  request.kind = RequestKind::kEvaluate;
  request.objective.gamma = 0.4;
  request.objective.model = CongestionModelKind::kIrregularGrid;
  request.objective.irregular.grid_w = 60.0;
  request.objective.irregular.grid_h = 60.0;
  const Reply reference = service::run_oneshot(netlist, request);
  ASSERT_EQ(reference.status, ReplyStatus::kOk);
  ASSERT_EQ(reference.seeds.size(), 1u);
  EXPECT_GT(reference.seeds[0].metrics.area, 0.0);

  for (const int workers : {1, 2, 4, 8}) {
    SessionOptions options;
    options.workers = workers;
    EngineSession session(make_mcnc("apte"), options);
    expect_same_results(reference, session.run(request));
  }
}

TEST(ServiceSession, AnnealSweepBitIdenticalToOneShotAtEveryWorkerCount) {
  const Netlist netlist = make_mcnc("apte");
  const Request request = anneal_request(7, 2, 0.05);
  const Reply reference = service::run_oneshot(netlist, request);
  ASSERT_EQ(reference.status, ReplyStatus::kOk);
  ASSERT_EQ(reference.seeds.size(), 2u);
  EXPECT_FALSE(reference.seeds[0].representation.empty());

  for (const int workers : {1, 2, 4, 8}) {
    SessionOptions options;
    options.workers = workers;
    EngineSession session(make_mcnc("apte"), options);
    expect_same_results(reference, session.run(request));
  }
}

TEST(ServiceSession, SessionReusePreservesResults) {
  // Back-to-back requests through one session must not perturb each
  // other via the executor-local caches.
  const Netlist netlist = make_mcnc("apte");
  const Request request = anneal_request(5, 1, 0.05);
  const Reply reference = service::run_oneshot(netlist, request);
  SessionOptions options;
  options.workers = 2;
  EngineSession session(make_mcnc("apte"), options);
  for (int round = 0; round < 3; ++round) {
    expect_same_results(reference, session.run(request));
  }
}

TEST(ServiceSession, EvaluateWalkAcrossObjectivesSharesThePlannerPath) {
  // One executor's warm EvalContext serves a seeded walk whose objective
  // changes on every request: IR at gamma 0.4, fixed, none, IR at gamma 0.
  // Every reply must equal a cold one-shot run of the same request, and
  // the IR gamma-0.4 replies must carry the Floorplanner's own metrics
  // under the same objective, with the raw cost on top.
  const Netlist netlist = make_mcnc("apte");
  std::vector<Request> objectives(4);
  for (Request& r : objectives) {
    r.kind = RequestKind::kEvaluate;
    r.objective.gamma = 0.4;
  }
  ASSERT_TRUE(
      service::set_congestion_model("ir", 60.0, &objectives[0].objective));
  ASSERT_TRUE(
      service::set_congestion_model("fixed", 0.0, &objectives[1].objective));
  ASSERT_TRUE(
      service::set_congestion_model("none", 0.0, &objectives[2].objective));
  ASSERT_TRUE(
      service::set_congestion_model("ir", 60.0, &objectives[3].objective));
  objectives[3].objective.gamma = 0.0;
  const Floorplanner planner(
      netlist, service::to_floorplan_options(objectives[0], 1));

  SessionOptions options;
  options.workers = 1;
  EngineSession session(make_mcnc("apte"), options);
  Rng rng(21);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  for (int i = 0; i < 24; ++i) {
    expr.random_move(rng);
    Request request = objectives[static_cast<std::size_t>(i % 4)];
    request.expression = expr.to_string();
    const Reply reply = session.run(request);
    ASSERT_EQ(reply.status, ReplyStatus::kOk) << reply.error;
    expect_same_results(service::run_oneshot(netlist, request), reply);
    if (i % 4 != 0) continue;
    const FloorplanMetrics want = planner.evaluate(expr);
    const FloorplanMetrics& got = reply.seeds[0].metrics;
    EXPECT_EQ(got.area, want.area) << "request " << i;
    EXPECT_EQ(got.wirelength, want.wirelength) << "request " << i;
    EXPECT_EQ(got.congestion, want.congestion) << "request " << i;
    const FloorplanObjective& o = request.objective;
    EXPECT_EQ(got.cost, o.alpha * got.area + o.beta * got.wirelength +
                            o.gamma * got.congestion)
        << "request " << i;
  }
}

TEST(ServiceSession, BackpressureRejectsTheOverflowingSubmit) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  SessionOptions options;
  options.workers = 1;
  options.queue_capacity = 3;
  EngineSession session(make_mcnc("apte"), options);

  // Occupy the single executor so everything after stays queued.
  Request gate;
  gate.kind = RequestKind::kEvaluate;
  gate.on_start = [&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const EngineSession::Ticket gate_ticket = session.submit(gate);
  ASSERT_NE(gate_ticket, 0u);
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue is now empty and capacity is 3: three single-shard
  // submits fit, the fourth is rejected — deterministically.
  Request work;
  work.kind = RequestKind::kEvaluate;
  std::vector<EngineSession::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(session.submit(work));
    EXPECT_NE(tickets.back(), 0u) << "submit " << i;
  }
  EXPECT_EQ(session.submit(work), 0u);
  // A two-shard request does not fit in zero remaining slots either.
  EXPECT_EQ(session.submit(anneal_request(1, 2, 0.05)), 0u);
  EXPECT_EQ(session.stats().rejected, 2);

  release.store(true);
  EXPECT_EQ(session.wait(gate_ticket).status, ReplyStatus::kOk);
  for (const EngineSession::Ticket ticket : tickets) {
    EXPECT_EQ(session.wait(ticket).status, ReplyStatus::kOk);
  }
  const service::SessionStats stats = session.stats();
  EXPECT_EQ(stats.submitted, 6);
  EXPECT_EQ(stats.accepted, 4);
  EXPECT_EQ(stats.completed, 4);
}

TEST(ServiceSession, CancelWhileQueuedSkipsExecution) {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  SessionOptions options;
  options.workers = 1;
  EngineSession session(make_mcnc("apte"), options);

  Request gate;
  gate.kind = RequestKind::kEvaluate;
  gate.on_start = [&] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const EngineSession::Ticket gate_ticket = session.submit(gate);
  ASSERT_NE(gate_ticket, 0u);
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const EngineSession::Ticket queued =
      session.submit(anneal_request(11, 1, 1.0));
  ASSERT_NE(queued, 0u);
  EXPECT_TRUE(session.cancel(queued));
  EXPECT_FALSE(session.cancel(queued + 100));  // unknown ticket
  release.store(true);

  const Reply reply = session.wait(queued);
  EXPECT_EQ(reply.status, ReplyStatus::kCancelled);
  ASSERT_EQ(reply.seeds.size(), 1u);
  EXPECT_TRUE(reply.seeds[0].cancelled);
  EXPECT_TRUE(reply.seeds[0].representation.empty());  // never ran
  EXPECT_EQ(session.wait(gate_ticket).status, ReplyStatus::kOk);
}

TEST(ServiceSession, CancelMidAnnealReturnsBestSoFarAndStaysServiceable) {
  std::atomic<bool> started{false};
  SessionOptions options;
  options.workers = 1;
  EngineSession session(make_mcnc("ami33"), options);

  Request request = slow_anneal_request();
  request.on_start = [&] { started.store(true); };
  const EngineSession::Ticket ticket = session.submit(request);
  ASSERT_NE(ticket, 0u);
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(session.cancel(ticket));

  const Reply reply = session.wait(ticket);
  EXPECT_EQ(reply.status, ReplyStatus::kCancelled);
  ASSERT_EQ(reply.seeds.size(), 1u);
  EXPECT_TRUE(reply.seeds[0].cancelled);
  // The run started, so it returns its best-so-far solution.
  EXPECT_FALSE(reply.seeds[0].representation.empty());
  EXPECT_GT(reply.seeds[0].metrics.area, 0.0);

  // The session must keep serving after a cancellation.
  Request followup;
  followup.kind = RequestKind::kEvaluate;
  EXPECT_EQ(session.run(followup).status, ReplyStatus::kOk);
  const service::SessionStats stats = session.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(ServiceSession, CallbackRequestsSelfCollect) {
  std::atomic<bool> done{false};
  Reply delivered;
  SessionOptions options;
  options.workers = 2;
  EngineSession session(make_mcnc("apte"), options);
  Request request;
  request.kind = RequestKind::kEvaluate;
  const EngineSession::Ticket ticket = session.submit(
      request, [&](EngineSession::Ticket, const Reply& reply) {
        delivered = reply;
        done.store(true);
      });
  ASSERT_NE(ticket, 0u);
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.status, ReplyStatus::kOk);
  // The ticket was retired on completion: wait() reports it unknown.
  EXPECT_EQ(session.wait(ticket).status, ReplyStatus::kError);
}

TEST(ServiceSession, DestructorCancelsOutstandingWork) {
  std::atomic<int> callbacks{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  {
    SessionOptions options;
    options.workers = 1;
    EngineSession session(make_mcnc("apte"), options);
    Request gate;
    gate.kind = RequestKind::kEvaluate;
    gate.on_start = [&] {
      started.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    session.submit(gate, [&](EngineSession::Ticket, const Reply&) {
      ++callbacks;
    });
    while (!started.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    session.submit(slow_anneal_request(),
                   [&](EngineSession::Ticket, const Reply& reply) {
                     EXPECT_EQ(reply.status, ReplyStatus::kCancelled);
                     ++callbacks;
                   });
    release.store(true);
    // ~EngineSession drains: the queued anneal completes as cancelled.
  }
  EXPECT_EQ(callbacks.load(), 2);
}

// ASan and TSan reserve terabytes of address space, so no address-space
// limit leaves room for them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerReservesAddressSpace = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerReservesAddressSpace = true;
#else
constexpr bool kSanitizerReservesAddressSpace = false;
#endif
#else
constexpr bool kSanitizerReservesAddressSpace = false;
#endif

/// Bytes of address space this process maps (0 where /proc is absent).
rlim_t mapped_bytes() {
  std::ifstream statm("/proc/self/statm");
  rlim_t pages = 0;
  statm >> pages;
  return pages * static_cast<rlim_t>(::sysconf(_SC_PAGESIZE));
}

TEST(ServiceSessionDeathTest, ExecutorsThatCannotStartThrowInsteadOfHanging) {
  // Under an address-space limit 40 MiB above the child's own use, only a
  // few 8 MiB thread stacks fit, so a 64-worker session starts a handful
  // of executors and then fails to start one. The constructor must stop
  // the started ones before its exception joins them, and throw. The
  // alarm turns a hang into a failure.
  if (kSanitizerReservesAddressSpace) {
    GTEST_SKIP() << "the sanitizer's shadow memory exceeds any limit";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::alarm(10);
        Netlist netlist = make_mcnc("apte");
        rlimit limit{};
        const rlim_t mapped = mapped_bytes();
        if (mapped == 0 || ::getrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(4);
        limit.rlim_cur = mapped + (rlim_t{40} << 20);
        if (::setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(4);
        try {
          SessionOptions options;
          options.workers = 64;
          const EngineSession session(std::move(netlist), options);
        } catch (const std::system_error&) {
          std::_Exit(3);
        }
        std::_Exit(5);
      },
      ::testing::ExitedWithCode(3), "");
}

TEST(ServiceProtocol, RequestCodecRoundTrips) {
  Request request = anneal_request(123456789012345ull, 4, 0.5);
  request.expression = "0 1 V";
  // Ids and targets past 2^53 come back exactly: a double would round
  // 2^60 + 1 to 2^60.
  const std::int64_t id = (std::int64_t{1} << 60) + 1;
  const std::string payload = service::encode_request(id, request);
  service::ProtocolRequest decoded;
  std::string error;
  ASSERT_TRUE(service::decode_request(payload, &decoded, &error)) << error;
  EXPECT_EQ(decoded.id, id);
  EXPECT_EQ(decoded.op, service::ProtocolOp::kAnneal);
  EXPECT_EQ(decoded.request.seed, request.seed);
  EXPECT_EQ(decoded.request.seeds, request.seeds);
  EXPECT_EQ(decoded.request.effort, request.effort);
  EXPECT_EQ(decoded.request.objective.model, request.objective.model);
  EXPECT_EQ(decoded.request.objective.irregular.grid_w,
            request.objective.irregular.grid_w);
  EXPECT_EQ(decoded.request.expression, request.expression);
  ASSERT_TRUE(service::decode_request(service::encode_cancel(7, -id),
                                      &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, 7);
  EXPECT_EQ(decoded.target, -id);

  // Unknown keys and unknown ops are errors, not silently ignored.
  EXPECT_FALSE(service::decode_request(
      R"({"id":1,"op":"anneal","bogus":1})", &decoded, &error));
  EXPECT_FALSE(service::decode_request(
      R"({"id":1,"op":"explode"})", &decoded, &error));
  EXPECT_FALSE(service::decode_request("not json", &decoded, &error));

  // Numbers must be finite and "seeds" integral, as ficon_cli's flags:
  // 1e999 parses to inf.
  for (const char* bad : {
           R"({"id":1,"op":"evaluate","alpha":1e999})",
           R"({"id":1,"op":"evaluate","beta":1e999})",
           R"({"id":1,"op":"evaluate","gamma":1e999})",
           R"({"id":1,"op":"evaluate","grid":1e999})",
           R"({"id":1,"op":"anneal","effort":1e999})",
           R"({"id":1,"op":"evaluate","alpha":-1e999})",
           R"({"id":1,"op":"evaluate","beta":-1e999})",
           R"({"id":1,"op":"evaluate","gamma":-1e999})",
           R"({"id":1,"op":"anneal","seeds":2.5})",
       }) {
    error.clear();
    EXPECT_FALSE(service::decode_request(bad, &decoded, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServiceProtocol, IntegerFieldsAcceptOnlyIntegralNumbersInRange) {
  // Converting an out-of-range or fractional double to an integer type is
  // undefined behavior; the decoders must reject such numbers first.
  service::ProtocolRequest decoded;
  std::string error;
  ASSERT_TRUE(service::decode_request(R"({"id":-7,"op":"anneal","seed":12})",
                                      &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, -7);
  EXPECT_EQ(decoded.request.seed, 12u);
  ASSERT_TRUE(service::decode_request(
      R"({"id":1,"op":"cancel","target":-9007199254740992})", &decoded,
      &error))
      << error;
  EXPECT_EQ(decoded.target, -9007199254740992);

  // Integers are parsed from their text, so every bit of the field's type
  // arrives: 2^53 + 1 is the first integer a double cannot hold.
  ASSERT_TRUE(service::decode_request(
      R"({"id":9007199254740993,"op":"anneal","seed":9007199254740993})",
      &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, 9007199254740993);
  EXPECT_EQ(decoded.request.seed, 9007199254740993u);
  ASSERT_TRUE(service::decode_request(
      R"({"id":1,"op":"cancel","target":9007199254740993})", &decoded,
      &error))
      << error;
  EXPECT_EQ(decoded.target, 9007199254740993);
  ASSERT_TRUE(service::decode_request(
      R"({"id":9223372036854775807,"op":"anneal",)"
      R"("seed":18446744073709551615})",
      &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(decoded.request.seed, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(service::decode_request(
      R"({"id":-9223372036854775808,"op":"cancel",)"
      R"("target":-9223372036854775808})",
      &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(decoded.target, std::numeric_limits<std::int64_t>::min());
  ASSERT_TRUE(service::decode_request(
      R"({"id":1,"op":"cancel","target":9223372036854775807})", &decoded,
      &error))
      << error;
  EXPECT_EQ(decoded.target, std::numeric_limits<std::int64_t>::max());

  // Only integer literals: an integral fraction or exponent is rejected
  // too, since its value would come through a double. A seed string is
  // digits only; "-1" used to wrap to 2^64 - 1.
  for (const char* bad : {
           R"({"id":4503599627370496.3,"op":"ping"})",
           R"({"id":1e3,"op":"ping"})",
           R"({"id":1,"op":"anneal","seeds":4.0})",
           R"({"id":1,"op":"anneal","seed":"-1"})",
           R"({"id":1,"op":"anneal","seed":"+1"})",
           R"({"id":1,"op":"anneal","seed":1e30})",
           R"({"id":1,"op":"anneal","seed":18446744073709551616})",
           R"({"id":1,"op":"anneal","seed":-1})",
           R"({"id":1,"op":"anneal","seed":2.5})",
           R"({"id":1,"op":"anneal","seed":1e999})",
           R"({"id":1,"op":"cancel","target":-1e300})",
           R"({"id":1,"op":"cancel","target":9223372036854775808})",
           R"({"id":1,"op":"cancel","target":0.5})",
           R"({"id":1e30,"op":"ping"})",
           R"({"id":-1e300,"op":"ping"})",
       }) {
    EXPECT_FALSE(service::decode_request(bad, &decoded, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }

  service::DecodedReply reply;
  for (const char* bad : {
           R"({"id":1e30,"status":"ok"})",
           R"({"id":1,"status":"ok","seeds":[{"seed":-3e300,"area":1,)"
           R"("wirelength":1,"congestion":0,"cost":1}]})",
           R"({"id":1,"status":"ok","stats":{"submitted":1e300}})",
           R"({"id":1,"status":"ok","stats":{"submitted":4.0}})",
       }) {
    EXPECT_FALSE(service::decode_reply(bad, &reply, &error)) << bad;
  }
  ASSERT_TRUE(service::decode_reply(
      R"({"id":9007199254740993,"status":"ok","seeds":[)"
      R"({"seed":18446744073709551615,"area":1,"wirelength":1,)"
      R"("congestion":0,"cost":1}]})",
      &reply, &error))
      << error;
  EXPECT_EQ(reply.id, 9007199254740993);
  ASSERT_EQ(reply.seeds.size(), 1u);
  EXPECT_EQ(reply.seeds[0].seed, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(service::decode_reply(
      R"({"id":3,"status":"ok","stats":{"submitted":4,"failed":1}})", &reply,
      &error))
      << error;
  EXPECT_EQ(reply.id, 3);
  EXPECT_EQ(reply.stats.submitted, 4);
  EXPECT_EQ(reply.stats.failed, 1);
}

TEST(ServiceSession, EffortWhoseMoveCountOverflowsIsAnErrorReply) {
  // 10 * effort * modules must fit in an int; past that the Floorplanner
  // refuses the request, and both service paths answer with the same
  // error reply, which carries no seed results.
  const Request request = anneal_request(1, 3, 1e12);
  const Reply oneshot = service::run_oneshot(make_mcnc("apte"), request);
  EXPECT_EQ(oneshot.status, ReplyStatus::kError);
  EXPECT_NE(oneshot.error.find("effort"), std::string::npos) << oneshot.error;
  EXPECT_TRUE(oneshot.seeds.empty());

  SessionOptions options;
  options.workers = 1;
  EngineSession session(make_mcnc("apte"), options);
  const EngineSession::Ticket ticket = session.submit(request);
  ASSERT_NE(ticket, 0u);
  const Reply reply = session.wait(ticket);
  EXPECT_EQ(reply.status, ReplyStatus::kError);
  EXPECT_NE(reply.error.find("effort"), std::string::npos) << reply.error;
  EXPECT_TRUE(reply.seeds.empty());
  expect_same_results(oneshot, reply);
}

/// apte in the native format with apte_m0 set to 1e300 x 1e300: the area
/// of every floorplan overflows to inf and its congestion to nan.
Netlist overflowing_apte() {
  std::ostringstream native;
  save_netlist(make_mcnc("apte"), native);
  std::string text = native.str();
  const std::size_t at = text.find("module apte_m0 ");
  text.replace(at, text.find('\n', at) - at, "module apte_m0 1e300 1e300");
  std::istringstream in(text);
  return parse_netlist(in);
}

TEST(ServiceSession, NonFiniteMetricsAreAnErrorReply) {
  // An "ok" reply would carry the inf/nan metrics as bare tokens, which
  // are not JSON; both service paths must answer with an error instead.
  // No congestion model: the grid models cast such geometry to int
  // before any metric exists, which only a range bound can prevent.
  Request anneal = anneal_request(1, 1, 0.01);
  anneal.objective.model = CongestionModelKind::kNone;
  anneal.objective.gamma = 0.0;
  Request evaluate = anneal;
  evaluate.kind = RequestKind::kEvaluate;
  const Reply evaluated = service::run_oneshot(overflowing_apte(), evaluate);
  EXPECT_EQ(evaluated.status, ReplyStatus::kError);
  EXPECT_NE(evaluated.error.find("area is not finite"), std::string::npos)
      << evaluated.error;
  EXPECT_TRUE(evaluated.seeds.empty());

  const Reply annealed = service::run_oneshot(overflowing_apte(), anneal);
  EXPECT_EQ(annealed.status, ReplyStatus::kError);
  EXPECT_NE(annealed.error.find("normalization area is not finite"),
            std::string::npos)
      << annealed.error;

  SessionOptions options;
  options.workers = 1;
  EngineSession session(overflowing_apte(), options);
  const Reply reply = session.run(evaluate);
  EXPECT_EQ(reply.status, ReplyStatus::kError);
  EXPECT_NE(reply.error.find("area is not finite"), std::string::npos)
      << reply.error;
  EXPECT_TRUE(reply.seeds.empty());
}

TEST(ServiceSession, PitchTooFineForItsLatticeIsAnErrorReply) {
  // A lattice axis above kMaxLatticeCells used to be cast to int, which is
  // undefined: gcc gave 1x1 lattices, and ami33 at a 1e-300 um pitch
  // replied ok with congestion 10.48 (0.00376 at 30 um). A fixed grid
  // whose axes pass that bound but whose nx * ny (5.3e10 cells at
  // 0.01 um) does not used to end in std::bad_alloc.
  SessionOptions options;
  options.workers = 1;
  EngineSession session(make_mcnc("ami33"), options);
  for (const char* payload : {
           R"({"id":1,"op":"evaluate","grid":1e-300})",
           R"({"id":2,"op":"evaluate","model":"fixed","grid":1e-30})",
           R"({"id":3,"op":"evaluate","model":"fixed","grid":0.01})",
       }) {
    service::ProtocolRequest decoded;
    std::string error;
    ASSERT_TRUE(service::decode_request(payload, &decoded, &error)) << error;
    const Reply oneshot =
        service::run_oneshot(make_mcnc("ami33"), decoded.request);
    EXPECT_EQ(oneshot.status, ReplyStatus::kError) << payload;
    EXPECT_NE(oneshot.error.find("pitch too fine"), std::string::npos)
        << oneshot.error;
    EXPECT_TRUE(oneshot.seeds.empty());
    const Reply reply = session.run(decoded.request);
    EXPECT_EQ(reply.status, ReplyStatus::kError) << payload;
    expect_same_results(oneshot, reply);
  }
}

TEST(ServiceSession, NegativeObjectiveWeightsAreAnErrorReply) {
  // Evaluate used to score with a negative weight and reply ok (ami33 at
  // gamma -1: cost 5,656,177.2); it must refuse the objective as anneal
  // does, on both service paths.
  SessionOptions options;
  options.workers = 1;
  EngineSession session(make_mcnc("ami33"), options);
  for (const char* payload : {
           R"({"id":1,"op":"evaluate","gamma":-1})",
           R"({"id":2,"op":"evaluate","alpha":-5,"beta":-2})",
           R"({"id":3,"op":"anneal","gamma":-1,"effort":0.01})",
       }) {
    service::ProtocolRequest decoded;
    std::string error;
    ASSERT_TRUE(service::decode_request(payload, &decoded, &error)) << error;
    const Reply oneshot =
        service::run_oneshot(make_mcnc("ami33"), decoded.request);
    EXPECT_EQ(oneshot.status, ReplyStatus::kError) << payload;
    EXPECT_NE(oneshot.error.find("objective weights must be non-negative"),
              std::string::npos)
        << oneshot.error;
    EXPECT_TRUE(oneshot.seeds.empty());
    const Reply reply = session.run(decoded.request);
    EXPECT_EQ(reply.status, ReplyStatus::kError) << payload;
    expect_same_results(oneshot, reply);
  }
}

TEST(ServiceProtocol, ReplyCodecRoundTripsBitExactDoubles) {
  Reply reply;
  reply.status = ReplyStatus::kOk;
  reply.seconds = 0.125;
  SeedResult seed;
  seed.seed = 18446744073709551615ull;  // max u64: must survive as string
  seed.metrics.area = 1.0 / 3.0;
  seed.metrics.wirelength = 2.0 / 7.0;
  seed.metrics.congestion = 1e-17;
  seed.metrics.cost = 123456.789012345678;
  seed.representation = "0 1 V 2 H";
  reply.seeds.push_back(seed);

  service::DecodedReply decoded;
  std::string error;
  ASSERT_TRUE(service::decode_reply(service::encode_reply(7, reply),
                                    &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, 7);
  EXPECT_EQ(decoded.status, "ok");
  ASSERT_EQ(decoded.seeds.size(), 1u);
  EXPECT_EQ(decoded.seeds[0].seed, seed.seed);
  EXPECT_EQ(decoded.seeds[0].metrics.area, seed.metrics.area);
  EXPECT_EQ(decoded.seeds[0].metrics.wirelength, seed.metrics.wirelength);
  EXPECT_EQ(decoded.seeds[0].metrics.congestion, seed.metrics.congestion);
  EXPECT_EQ(decoded.seeds[0].metrics.cost, seed.metrics.cost);
  EXPECT_EQ(decoded.seeds[0].representation, seed.representation);
}

TEST(ServiceProtocol, FramingRoundTripsAndRejectsGarbage) {
  std::stringstream stream;
  service::write_frame(stream, "hello \"frames\"\nwith newlines");
  service::write_frame(stream, "");
  std::string payload;
  EXPECT_EQ(service::read_frame(stream, &payload),
            service::FrameStatus::kOk);
  EXPECT_EQ(payload, "hello \"frames\"\nwith newlines");
  EXPECT_EQ(service::read_frame(stream, &payload),
            service::FrameStatus::kOk);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(service::read_frame(stream, &payload),
            service::FrameStatus::kEof);

  std::stringstream garbage("xyz\n{}\n");
  EXPECT_EQ(service::read_frame(garbage, &payload),
            service::FrameStatus::kMalformed);
  std::stringstream truncated("10\n{}");
  EXPECT_EQ(service::read_frame(truncated, &payload),
            service::FrameStatus::kMalformed);
  std::stringstream oversized("999999999999\n");
  EXPECT_EQ(service::read_frame(oversized, &payload),
            service::FrameStatus::kMalformed);
}

}  // namespace
