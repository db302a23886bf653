// Congestion-evaluation service layer, the engine behind ficond: a long-lived
// engine session that amortizes circuit parsing and evaluator caches
// across many evaluate/anneal requests.
//
// The one-shot tools (ficon_cli, the experiment drivers) pay the full
// setup cost per invocation: parse the netlist, precompute the slicing
// shape curves, warm the decomposition caches — then throw it all away.
// An EngineSession owns one parsed netlist snapshot plus one EvalContext
// per executor, whose pack and decomposition caches stay warm across
// evaluate requests (each re-packs through the cache), and serves
// requests from a bounded queue:
//
//   * **Sharding.** An anneal request with `seeds = N` fans out into N
//     independent single-seed jobs using exactly the seed-sweep
//     derivation (`SplitMix64(seed + s).next()`, see exp/experiment.cpp),
//     so a session sweep is bit-identical to `run_seed_sweep`. With
//     `seeds = 1` the request seed is used directly, matching
//     `ficon_cli --seed`.
//   * **Determinism.** Each executor wraps its work in a
//     `ThreadPool::InlineScope`: nested congestion-model parallelism
//     collapses inline on the executor (the request fan-out owns the
//     parallelism, exactly like the seed sweep's one-run-per-block), so
//     results are bit-identical to the serial one-shot path
//     (`run_oneshot`) at every worker count.
//   * **Backpressure.** The queue holds at most `queue_capacity` queued
//     shards; a submit that would overflow is rejected synchronously
//     (ticket 0, stats.rejected) instead of buffering unboundedly.
//   * **Cancellation.** `cancel(ticket)` sets a per-request flag: queued
//     shards complete immediately as cancelled, running anneals stop
//     cooperatively via `AnnealOptions::should_stop` and return their
//     best-so-far. The session stays serviceable afterwards.
//
// The ficond daemon (tools/ficond.cpp) exposes a session over the JSONL
// frame protocol in service/protocol.hpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/netlist.hpp"
#include "core/floorplanner.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace ficon::service {

/// What a request asks the engine to do.
enum class RequestKind {
  kEvaluate,  ///< pack + score one expression (cheap, no annealing)
  kAnneal,    ///< full simulated-annealing run (per-seed sharded)
};

const char* to_string(RequestKind kind);

/// Terminal state of a request.
enum class ReplyStatus {
  kOk,         ///< every shard completed
  kRejected,   ///< queue full (or session shutting down) at submit time
  kCancelled,  ///< cancel() fired before completion; partial results inside
  kError,      ///< a shard threw; `Reply::error` carries the first message
};

const char* to_string(ReplyStatus status);

/// @brief One unit of work against the session's netlist. Field defaults
/// mirror the engine defaults, not the ficon_cli defaults — the protocol
/// decoder (service/protocol.hpp) applies CLI-compatible defaults.
struct Request {
  RequestKind kind = RequestKind::kAnneal;
  FloorplanObjective objective{};
  FloorplanEngine engine = FloorplanEngine::kPolishExpression;
  AnnealOptions anneal{};
  double effort = 1.0;
  std::uint64_t seed = 1;
  /// Anneal fan-out: number of independent seeds (sharded one job each).
  /// Values < 1 clamp to 1. Evaluate requests always run one shard.
  int seeds = 1;
  /// Evaluate only: the Polish expression to score, in to_string() token
  /// format ("0 1 V 2 H"); empty scores PolishExpression::initial().
  std::string expression;
  /// Test hook: runs on the executor thread immediately before the shard
  /// executes (after the cancelled-while-queued check). Lets tests hold a
  /// worker busy deterministically; empty in production use.
  std::function<void()> on_start;
};

/// Outcome of one shard (one seed).
struct SeedResult {
  std::uint64_t seed = 0;
  FloorplanMetrics metrics{};
  /// Final representation (Polish expression / sequence pair). Empty when
  /// the shard was cancelled before it started.
  std::string representation;
  double seconds = 0.0;
  bool cancelled = false;  ///< stopped early; metrics are best-so-far
};

struct Reply {
  ReplyStatus status = ReplyStatus::kOk;
  std::string error;              ///< first shard error (kError only)
  std::vector<SeedResult> seeds;  ///< one per shard; empty for kError
  double seconds = 0.0;  ///< submit-to-completion wall clock
};

/// @brief The FloorplanOptions a given shard runs under. Shared by the
/// session executors and `run_oneshot` so the two paths are bit-identical
/// by construction.
FloorplanOptions to_floorplan_options(const Request& request,
                                      std::uint64_t shard_seed);

/// @brief Per-shard seeds of a request: `{seed}` for a single seed, else
/// the seed-sweep derivation `SplitMix64(seed + s).next()` for shard s —
/// the same stream `run_seed_sweep` uses (exp/experiment.cpp).
std::vector<std::uint64_t> shard_seeds(const Request& request);

/// @brief Parse a Polish expression from to_string() format: whitespace-
/// separated module indices and H/V operators. Throws std::invalid_argument
/// on unknown tokens or invalid/non-normalized expressions.
PolishExpression parse_polish_expression(const std::string& text);

/// @brief Load a circuit by built-in MCNC name ("ami33"), GSRC .blocks
/// path, or native .ficon path — the lookup ficon_cli, ficond and the
/// benches share.
Netlist load_circuit(const std::string& name_or_path);

/// @brief Serial reference path: execute one request start-to-finish on
/// the calling thread, shards in seed order. The session's concurrent
/// executors produce bit-identical SeedResults (same options via
/// to_floorplan_options, deterministic engine).
Reply run_oneshot(const Netlist& netlist, const Request& request);

struct SessionOptions {
  /// Executor threads; values < 1 resolve to ThreadPool::env_threads().
  int workers = 0;
  /// Maximum queued (not yet running) shards; submits that would exceed
  /// it are rejected with ticket 0.
  std::size_t queue_capacity = 64;
};

/// Monotonic counters; `submitted == accepted + rejected`, and every
/// accepted request ends in exactly one of completed/cancelled/failed.
struct SessionStats {
  long long submitted = 0;
  long long accepted = 0;
  long long rejected = 0;
  long long completed = 0;  ///< finished with status kOk
  long long cancelled = 0;  ///< finished with status kCancelled
  long long failed = 0;     ///< finished with status kError
};

/// @brief A parsed netlist snapshot plus a bounded request queue and a
/// fixed pool of executor threads. Thread-safe: submit/wait/cancel/stats
/// may be called concurrently from any number of threads.
class EngineSession {
 public:
  /// Opaque request handle; 0 is never a valid ticket (it means the
  /// submit was rejected).
  using Ticket = std::uint64_t;
  /// Completion callback, invoked once on an executor thread. A request
  /// submitted with a callback is self-collecting: the ticket is retired
  /// on completion and must not be passed to wait().
  using Callback = std::function<void(Ticket, const Reply&)>;

  /// Starts the executors. When one cannot start, the started ones stop
  /// and the constructor rethrows (std::system_error from std::jthread).
  explicit EngineSession(Netlist netlist, SessionOptions options = {});

  /// Cancels outstanding requests (queued shards finish as cancelled,
  /// running anneals stop cooperatively), fires their callbacks, joins
  /// the executors.
  ~EngineSession();

  EngineSession(const EngineSession&) = delete;
  EngineSession& operator=(const EngineSession&) = delete;

  /// @brief Enqueue a request. Returns 0 — synchronously, without
  /// blocking — when the queued-shard budget is exhausted (backpressure)
  /// or the session is shutting down; the caller decides whether to
  /// retry, shed load, or fail upward.
  Ticket submit(Request request, Callback callback = {});

  /// @brief Block until the request finishes and return its Reply.
  /// Retires the ticket: a second wait() on it returns kError. Only for
  /// tickets submitted without a callback.
  Reply wait(Ticket ticket);

  /// @brief Request cooperative cancellation. Returns true if the ticket
  /// was outstanding (queued or running), false if unknown or already
  /// finished. Completion still arrives through wait()/the callback, with
  /// status kCancelled.
  bool cancel(Ticket ticket);

  /// Submit + wait convenience; a rejected submit returns kRejected.
  Reply run(Request request);

  SessionStats stats() const;
  const Netlist& netlist() const { return netlist_; }
  int workers() const { return static_cast<int>(executors_.size()); }
  std::size_t queue_capacity() const { return options_.queue_capacity; }

 private:
  struct Pending;  // per-request state, defined in session.cpp
  struct Shard {
    std::shared_ptr<Pending> pending;
    std::size_t index = 0;  ///< into Pending::seeds / Pending::results
  };

  void worker_loop(int worker_index);
  void execute_shard(const Shard& shard, EvalContext& context);

  const Netlist netlist_;
  const SessionOptions options_;

  mutable Mutex mu_;
  std::condition_variable_any queue_cv_;  ///< executors wait for work
  std::condition_variable_any done_cv_;   ///< wait() waits for completion
  Ticket next_ticket_ FICON_GUARDED_BY(mu_) = 0;
  std::deque<Shard> queue_ FICON_GUARDED_BY(mu_);
  std::map<Ticket, std::shared_ptr<Pending>> tickets_ FICON_GUARDED_BY(mu_);
  SessionStats stats_ FICON_GUARDED_BY(mu_);
  bool stopping_ FICON_GUARDED_BY(mu_) = false;

  std::vector<std::jthread> executors_;  ///< last member: joins first
};

}  // namespace ficon::service
