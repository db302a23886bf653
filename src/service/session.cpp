#include "service/session.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "circuit/mcnc.hpp"
#include "circuit/parser.hpp"
#include "congestion/model.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ficon::service {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kEvaluate: return "evaluate";
    case RequestKind::kAnneal: return "anneal";
  }
  return "?";
}

const char* to_string(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk: return "ok";
    case ReplyStatus::kRejected: return "rejected";
    case ReplyStatus::kCancelled: return "cancelled";
    case ReplyStatus::kError: return "error";
  }
  return "?";
}

FloorplanOptions to_floorplan_options(const Request& request,
                                      std::uint64_t shard_seed) {
  FloorplanOptions options;
  options.objective = request.objective;
  options.engine = request.engine;
  options.anneal = request.anneal;
  options.effort = request.effort;
  options.seed = shard_seed;
  return options;
}

std::vector<std::uint64_t> shard_seeds(const Request& request) {
  // A single seed runs under the request seed directly — the contract of
  // `ficon_cli --seed N`. A sweep expands through SplitMix64 exactly like
  // run_seed_sweep (exp/experiment.cpp), so session sweeps reproduce the
  // experiment drivers bit for bit.
  if (request.kind == RequestKind::kEvaluate || request.seeds <= 1) {
    return {request.seed};
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(request.seeds));
  for (int s = 0; s < request.seeds; ++s) {
    seeds.push_back(
        SplitMix64(request.seed + static_cast<std::uint64_t>(s)).next());
  }
  return seeds;
}

Netlist load_circuit(const std::string& name_or_path) {
  for (const McncSpec& spec : mcnc_specs()) {
    if (spec.name == name_or_path) return make_mcnc(name_or_path);
  }
  if (name_or_path.size() > 7 &&
      name_or_path.compare(name_or_path.size() - 7, 7, ".blocks") == 0) {
    return load_gsrc(name_or_path);
  }
  return load_netlist(name_or_path);
}

namespace {

/// Score one expression through the executor's EvalContext. The reported
/// cost is the *raw* weighted objective
/// alpha*area + beta*wire + gamma*congestion — evaluate has no annealing
/// warm-up walk, so the walk-normalized cost of a Floorplanner run is
/// not defined here (docs/SERVICE.md spells out the difference). The
/// model is built per request because the objective changes per request;
/// building one only validates its parameters.
SeedResult evaluate_once(EvalContext& context, const Request& request,
                         std::uint64_t seed) {
  FICON_REQUIRE(request.engine == FloorplanEngine::kPolishExpression,
                "evaluate supports the polish engine only");
  Stopwatch watch;
  const int modules = static_cast<int>(context.netlist().module_count());
  const PolishExpression expr =
      request.expression.empty()
          ? PolishExpression::initial(modules)
          : PolishExpression::parse(request.expression);
  FICON_REQUIRE(expr.module_count() == modules,
                "expression module count does not match the session circuit");
  const FloorplanObjective& o = request.objective;
  o.validate();
  const std::unique_ptr<CongestionModel> model =
      make_congestion_model(o.model, o.irregular, o.fixed);

  SeedResult result;
  result.seed = seed;
  result.metrics = context.evaluate(expr, model.get());
  FloorplanMetrics& m = result.metrics;
  m.cost = o.alpha * m.area + o.beta * m.wirelength + o.gamma * m.congestion;
  result.representation = expr.to_string();
  result.seconds = watch.seconds();
  return result;
}

/// One full annealing run under one shard seed. `cancel` (may be null)
/// is polled through AnnealOptions::should_stop; a pure read, so the run
/// is bit-identical to an uncancelled one for as long as it stays false.
SeedResult anneal_once(const Netlist& netlist, const Request& request,
                       std::uint64_t shard_seed,
                       const std::atomic<bool>* cancel) {
  FloorplanOptions options = to_floorplan_options(request, shard_seed);
  if (cancel != nullptr) {
    options.anneal.should_stop = [cancel] {
      return cancel->load(std::memory_order_relaxed);
    };
  }
  const Floorplanner planner(netlist, options);
  const FloorplanSolution solution = planner.run();

  SeedResult result;
  result.seed = shard_seed;
  result.metrics = solution.metrics;
  result.representation = solution.representation;
  result.seconds = solution.seconds;
  result.cancelled = solution.stats.cancelled;
  return result;
}

/// One shard of either kind. A non-finite metric (an input so large its
/// area overflows, say) is an error, never an ok result whose reply
/// would carry bare inf/nan tokens.
SeedResult run_shard(EvalContext& context, const Request& request,
                     std::uint64_t shard_seed,
                     const std::atomic<bool>* cancel) {
  SeedResult result =
      request.kind == RequestKind::kEvaluate
          ? evaluate_once(context, request, shard_seed)
          : anneal_once(context.netlist(), request, shard_seed, cancel);
  const FloorplanMetrics& m = result.metrics;
  for (const auto& [name, value] :
       {std::pair{"area", m.area}, std::pair{"wirelength", m.wirelength},
        std::pair{"congestion", m.congestion}, std::pair{"cost", m.cost}}) {
    FICON_REQUIRE(std::isfinite(value),
                  std::string(name) + " is not finite");
  }
  return result;
}

}  // namespace

Reply run_oneshot(const Netlist& netlist, const Request& request) {
  Stopwatch watch;
  Reply reply;
  EvalContext context(netlist);
  for (const std::uint64_t seed : shard_seeds(request)) {
    try {
      reply.seeds.push_back(run_shard(context, request, seed, nullptr));
    } catch (const std::exception& e) {
      // A failed request carries no seed results, on either path.
      reply.status = ReplyStatus::kError;
      reply.error = e.what();
      reply.seeds.clear();
      break;
    }
  }
  reply.seconds = watch.seconds();
  return reply;
}

/// Per-request bookkeeping. `cancel` is lock-free (polled from inside
/// annealing runs); every other mutable field is guarded by the owning
/// session's mu_ (shared with the queue, so shard completion and wait()
/// wake-ups are one lock).
struct EngineSession::Pending {
  Ticket ticket = 0;
  Request request;
  std::vector<std::uint64_t> seeds;
  Callback callback;
  Stopwatch watch;  ///< started at submit
  std::atomic<bool> cancel{false};

  std::vector<SeedResult> results;  ///< slot per shard
  std::size_t remaining = 0;
  bool failed = false;
  bool any_cancelled = false;
  std::string error;
  bool done = false;
  Reply reply;  ///< built once when remaining hits 0
};

EngineSession::EngineSession(Netlist netlist, SessionOptions options)
    : netlist_(std::move(netlist)), options_(options) {
  const int workers =
      options_.workers >= 1 ? options_.workers : ThreadPool::env_threads();
  executors_.reserve(static_cast<std::size_t>(workers));
  try {
    for (int i = 0; i < workers; ++i) {
      executors_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // A thread failed to start. The started executors wait for work or
    // stopping_, and executors_' destructor joins them as the exception
    // leaves, so set the flag first or that join never returns.
    {
      const MutexLock lock(mu_);
      stopping_ = true;
    }
    queue_cv_.notify_all();
    throw;
  }
}

EngineSession::~EngineSession() {
  {
    const MutexLock lock(mu_);
    stopping_ = true;
    // Outstanding work drains as cancelled: queued shards observe the
    // flag when popped, running anneals stop at the next poll. Executors
    // exit once the queue is empty, so every callback still fires.
    for (auto& [ticket, pending] : tickets_) {
      pending->cancel.store(true, std::memory_order_release);
    }
  }
  queue_cv_.notify_all();
  executors_.clear();  // std::jthread joins on destruction
  done_cv_.notify_all();
}

EngineSession::Ticket EngineSession::submit(Request request,
                                            Callback callback) {
  auto pending = std::make_shared<Pending>();
  pending->request = std::move(request);
  pending->seeds = shard_seeds(pending->request);
  pending->results.resize(pending->seeds.size());
  pending->remaining = pending->seeds.size();
  pending->callback = std::move(callback);

  {
    const MutexLock lock(mu_);
    ++stats_.submitted;
    if (stopping_ ||
        queue_.size() + pending->seeds.size() > options_.queue_capacity) {
      ++stats_.rejected;
      return 0;
    }
    ++stats_.accepted;
    pending->ticket = ++next_ticket_;
    tickets_.emplace(pending->ticket, pending);
    for (std::size_t i = 0; i < pending->seeds.size(); ++i) {
      queue_.push_back(Shard{pending, i});
    }
  }
  queue_cv_.notify_all();
  return pending->ticket;
}

Reply EngineSession::wait(Ticket ticket) {
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<Mutex> lock(mu_);
    const auto it = tickets_.find(ticket);
    if (it == tickets_.end()) {
      Reply reply;
      reply.status = ReplyStatus::kError;
      reply.error = "unknown ticket " + std::to_string(ticket);
      return reply;
    }
    pending = it->second;
    done_cv_.wait(lock, [&] {
      mu_.AssertHeld();  // wait predicates run with the lock held
      return pending->done;
    });
    mu_.AssertHeld();  // unique_lock is invisible to -Wthread-safety
    tickets_.erase(ticket);
  }
  return pending->reply;
}

bool EngineSession::cancel(Ticket ticket) {
  const MutexLock lock(mu_);
  const auto it = tickets_.find(ticket);
  if (it == tickets_.end() || it->second->done) return false;
  it->second->cancel.store(true, std::memory_order_release);
  return true;
}

Reply EngineSession::run(Request request) {
  const Ticket ticket = submit(std::move(request));
  if (ticket == 0) {
    Reply reply;
    reply.status = ReplyStatus::kRejected;
    reply.error = "queue full";
    return reply;
  }
  return wait(ticket);
}

SessionStats EngineSession::stats() const {
  const MutexLock lock(mu_);
  return stats_;
}

void EngineSession::worker_loop(int worker_index) {
  obs::set_thread_label("svc-" + std::to_string(worker_index));
  // Executor-local evaluation context, warm across requests. Every cached
  // value is a pure function of its inputs, so reuse cannot perturb
  // results (the same argument the incremental pipeline rests on).
  EvalContext context(netlist_);
  while (true) {
    Shard shard;
    {
      std::unique_lock<Mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        mu_.AssertHeld();
        return stopping_ || !queue_.empty();
      });
      mu_.AssertHeld();
      if (queue_.empty()) return;  // stopping_ and fully drained
      shard = std::move(queue_.front());
      queue_.pop_front();
    }
    execute_shard(shard, context);
  }
}

void EngineSession::execute_shard(const Shard& shard, EvalContext& context) {
  Pending& pending = *shard.pending;
  SeedResult result;
  result.seed = pending.seeds[shard.index];
  std::string error;

  if (pending.cancel.load(std::memory_order_acquire)) {
    result.cancelled = true;  // cancelled while queued: never ran
  } else {
    if (pending.request.on_start) pending.request.on_start();
    try {
      // The request fan-out owns the parallelism: nested congestion-model
      // run() calls collapse inline on this executor, the seed-sweep
      // pattern (see util/thread_pool.hpp, InlineScope).
      const ThreadPool::InlineScope inline_scope;
      result = run_shard(context, pending.request, result.seed,
                         &pending.cancel);
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  Callback callback;
  Reply reply;
  Ticket ticket = 0;
  {
    const MutexLock lock(mu_);
    pending.results[shard.index] = std::move(result);
    if (!error.empty()) {
      pending.failed = true;
      if (pending.error.empty()) pending.error = error;
    }
    if (pending.results[shard.index].cancelled) pending.any_cancelled = true;
    if (--pending.remaining > 0) return;

    pending.done = true;
    pending.reply.status = pending.failed        ? ReplyStatus::kError
                           : pending.any_cancelled ? ReplyStatus::kCancelled
                                                   : ReplyStatus::kOk;
    pending.reply.error = pending.error;
    // A failed request carries no seed results, like run_oneshot's.
    if (!pending.failed) pending.reply.seeds = pending.results;
    pending.reply.seconds = pending.watch.seconds();
    switch (pending.reply.status) {
      case ReplyStatus::kError: ++stats_.failed; break;
      case ReplyStatus::kCancelled: ++stats_.cancelled; break;
      default: ++stats_.completed; break;
    }
    ticket = pending.ticket;
    callback = std::move(pending.callback);
    if (callback) {
      // Self-collecting: nobody will wait() on this ticket.
      tickets_.erase(pending.ticket);
      reply = pending.reply;
    }
  }
  done_cv_.notify_all();
  if (callback) callback(ticket, reply);
}

}  // namespace ficon::service
