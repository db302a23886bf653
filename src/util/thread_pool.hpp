// Deterministic fork-join thread pool for the evaluation hot paths.
//
// Design constraints, in priority order:
//
//  1. **Bit-exact determinism across thread counts.** Every parallel
//     computation in ficon is expressed as a fixed set of independent
//     *blocks* whose count and boundaries depend only on the problem size
//     (never on the thread count), and whose results are reduced in block
//     order: `fold_blocks()` adds a block's partial grid into the result
//     as soon as every earlier block's is in, on whichever thread finishes
//     the run of ready blocks. Which worker executes which block is
//     scheduling noise; the reduced result is identical from
//     `FICON_THREADS=1` to `FICON_THREADS=64`. A computation whose result
//     does not depend on its blocking at all (the cut-line sort, the net
//     decomposition) may choose its block count from runs_inline() as
//     well; it still runs every count, one block included, through run().
//  2. **Cheap dispatch.** Congestion evaluation runs inside the annealing
//     inner loop, so a fork-join must not spawn threads. Workers are
//     long-lived `std::jthread`s parked on a condition variable; a
//     dispatch is one notify_all plus one atomic per block.
//  3. **Safe nesting.** The seed-sweep fans annealing runs out across the
//     pool, and each run calls the (also parallel) congestion models.
//     A `run()` issued from inside a pool task executes inline on the
//     calling thread instead of deadlocking on the pool — the outer
//     fan-out already owns all the parallelism.
//
// Sizing: `FICON_THREADS` (or `ThreadPool::set_global_threads()`), default
// `std::thread::hardware_concurrency()`. A pool of size 1 has no worker
// threads at all; every block runs inline on the caller.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/mutex.hpp"

namespace ficon {

/// @brief Fixed-size fork-join pool. One job at a time; blocks are handed
/// to workers through an atomic counter (dynamic load balancing), and the
/// caller participates in the work.
class ThreadPool {
 public:
  /// @param threads total worker count including the calling thread;
  ///   values < 1 are clamped to 1 (purely inline execution).
  explicit ThreadPool(int threads) : thread_count_(threads < 1 ? 1 : threads) {
    workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
    for (int i = 0; i < thread_count_ - 1; ++i) {
      workers_.emplace_back([this, i](std::stop_token stop) {
        obs::set_thread_label("worker-" + std::to_string(i));
        worker_loop(stop);
      });
    }
  }

  ~ThreadPool() {
    for (std::jthread& w : workers_) w.request_stop();
    cv_.notify_all();
    // std::jthread joins on destruction.
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in a run (workers + caller).
  int threads() const { return thread_count_; }

  /// True when a run() issued from this thread runs its blocks inline, in
  /// order: a one-thread pool, inside another run() or under an
  /// InlineScope. A computation whose result is the same for every
  /// blocking may skip a split that pays off only in parallel.
  bool runs_inline() const { return thread_count_ == 1 || inside_run(); }

  /// @brief Execute `fn(b)` for every block b in [0, blocks) and wait for
  /// completion. Blocks must be independent; any deterministic reduction
  /// over their results is the caller's job (do it in block order).
  ///
  /// Runs inline — preserving block order 0..blocks-1 — when the pool has
  /// one thread, when there is a single block, or when called from inside
  /// another run() (nested parallelism collapses to the outer level).
  /// The first exception thrown by a block is rethrown on the caller after
  /// all blocks finished.
  void run(int blocks, const std::function<void(int)>& fn) {
    FICON_REQUIRE(blocks >= 0, "negative block count");
    if (blocks == 0) return;
    if (blocks == 1 || thread_count_ == 1 || inside_run()) {
      obs::count(obs::Counter::kPoolInlineBlocks, blocks);
      for (int b = 0; b < blocks; ++b) fn(b);
      return;
    }

    obs::count(obs::Counter::kPoolJobs);
    Job job;
    job.fn = &fn;
    job.blocks = blocks;
    if (obs::trace_enabled()) job.dispatch_ns = steady_now_ns();
    {
      const MutexLock lock(mu_);
      job_ = &job;
      ++epoch_;
    }
    cv_.notify_all();

    {
      const InsideRunGuard guard;
      drain(job);  // the caller is a full participant
    }
    {
      // Wait until every block finished AND every worker that picked this
      // job up has left drain() — only then is the stack-allocated Job
      // safe to destroy.
      std::unique_lock<Mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return job.done.load() == blocks && job.active.load() == 0;
      });
      mu_.AssertHeld();  // unique_lock acquisitions are invisible to -Wthread-safety
      job_ = nullptr;
    }
    {
      const MutexLock lock(job.error_mu);
      if (job.error) std::rethrow_exception(job.error);
    }
  }

  /// @brief Process-wide pool, lazily sized from `FICON_THREADS` (default:
  /// hardware_concurrency) on first use.
  static ThreadPool& global() {
    const MutexLock lock(global_mu());
    std::unique_ptr<ThreadPool>& pool = global_slot();
    if (!pool) pool = std::make_unique<ThreadPool>(env_threads());
    return *pool;
  }

  /// @brief Rebuild the global pool with an explicit size (benches and the
  /// determinism tests sweep 1/2/4/8). Must not race with a concurrent
  /// global() run; call it from the main thread between evaluations.
  static void set_global_threads(int threads) {
    const MutexLock lock(global_mu());
    global_slot() = std::make_unique<ThreadPool>(threads);
  }

  /// Thread count `FICON_THREADS` resolves to (without touching the pool).
  static int env_threads() {
    const int requested = env_int("FICON_THREADS", 0);
    if (requested >= 1) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  /// @brief RAII scope that routes every run() issued from this thread to
  /// the inline path — exactly what happens to nested run() calls inside
  /// a pool task.
  ///
  /// For threads the pool does not know about (the service layer's
  /// request executors) this is the safe way to coexist with the global
  /// pool: the pool runs one fork-join job at a time, so dispatching from
  /// several independent threads concurrently is not part of its
  /// contract. An executor that owns its level of parallelism (one
  /// request per executor, like the seed sweep's one-run-per-block)
  /// wraps its work in an InlineScope and nested evaluations run inline,
  /// deterministically, on the executor itself. Restores the previous
  /// state, so nesting is safe.
  class InlineScope {
   public:
    InlineScope() : previous_(inside_run()) { inside_run() = true; }
    ~InlineScope() { inside_run() = previous_; }
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    const bool previous_;
  };

 private:
  struct Job {
    const std::function<void(int)>* fn = nullptr;
    int blocks = 0;
    long long dispatch_ns = 0;   ///< dispatch time (telemetry; 0 = untraced)
    std::atomic<int> next{0};    ///< next block to claim
    std::atomic<int> done{0};    ///< blocks finished
    std::atomic<int> active{0};  ///< workers currently inside drain()
    Mutex error_mu;
    std::exception_ptr error FICON_GUARDED_BY(error_mu);
  };

  static long long steady_now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// True while this thread executes blocks of some run() — used to route
  /// nested run() calls to the inline path.
  static bool& inside_run() {
    thread_local bool inside = false;
    return inside;
  }

  struct InsideRunGuard {
    InsideRunGuard() { inside_run() = true; }
    ~InsideRunGuard() { inside_run() = false; }
  };

  void drain(Job& job) {
    while (true) {
      const int b = job.next.fetch_add(1, std::memory_order_relaxed);
      if (b >= job.blocks) return;
      // Each block counts once, on the thread that runs it, so the
      // per-thread rows of a trace sum to the total.
      obs::count(obs::Counter::kPoolBlocks);
      try {
        (*job.fn)(b);
      } catch (...) {
        const MutexLock lock(job.error_mu);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job.blocks) {
        const MutexLock lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop(std::stop_token stop) {
    const InsideRunGuard guard;  // nested run() inside a task stays inline
    std::uint64_t seen = 0;
    while (true) {
      Job* job = nullptr;
      {
        std::unique_lock<Mutex> lock(mu_);
        cv_.wait(lock, stop, [&] {
          mu_.AssertHeld();  // wait predicates run with the lock held
          return epoch_ != seen;
        });
        if (stop.stop_requested()) return;
        mu_.AssertHeld();  // unique_lock is invisible to -Wthread-safety
        seen = epoch_;
        job = job_;
        // Register while holding mu_, i.e. while job_ is provably alive:
        // run() cannot clear job_ (and destroy the Job) until active
        // returns to zero.
        if (job != nullptr) job->active.fetch_add(1, std::memory_order_relaxed);
      }
      if (job != nullptr) {
        // Queue wait: dispatch-to-pickup latency, attributed to this
        // worker's sink (dispatch_ns is only stamped while tracing).
        if (job->dispatch_ns != 0 && obs::trace_enabled()) {
          const long long wait = steady_now_ns() - job->dispatch_ns;
          obs::count(obs::Counter::kPoolQueueWaitNs,
                     wait > 0 ? wait : 0);
        }
        drain(*job);
        const MutexLock lock(mu_);
        job->active.fetch_sub(1, std::memory_order_relaxed);
        done_cv_.notify_all();
      }
    }
  }

  static Mutex& global_mu() {
    static Mutex mu;
    return mu;
  }
  static std::unique_ptr<ThreadPool>& global_slot() {
    static std::unique_ptr<ThreadPool> pool;
    return pool;
  }

  const int thread_count_;
  Mutex mu_;
  std::condition_variable_any cv_;
  std::condition_variable_any done_cv_;
  std::uint64_t epoch_ FICON_GUARDED_BY(mu_) = 0;
  Job* job_ FICON_GUARDED_BY(mu_) = nullptr;
  std::vector<std::jthread> workers_;
};

/// @brief Number of work blocks for `items` independent work units.
///
/// Deterministic in the problem size ONLY — this is what makes parallel
/// reductions reproducible across thread counts (see the file comment).
/// 16 blocks saturate an 8-way pool under dynamic scheduling while keeping
/// the partial buffers of a deterministic reduction (fold_blocks()) few.
inline int deterministic_block_count(std::size_t items) {
  constexpr std::size_t kMaxBlocks = 16;
  return static_cast<int>(items < kMaxBlocks ? items : kMaxBlocks);
}

/// Half-open index range of block `b` out of `blocks` over `items` units.
/// Blocks partition [0, items) contiguously and in order.
struct BlockRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

inline BlockRange block_range(std::size_t items, int blocks, int b) {
  FICON_REQUIRE(blocks > 0 && b >= 0 && b < blocks, "block index out of range");
  const std::size_t n = static_cast<std::size_t>(blocks);
  const std::size_t i = static_cast<std::size_t>(b);
  return BlockRange{items * i / n, items * (i + 1) / n};
}

/// Partials at least this large are bounded in number by fold_blocks():
/// 1 MiB, far above the IR model's (about 16 KB on the generated ami49x80
/// tier, 108 KB on ami49 at 30 um) and far below a fixed-grid map's at a
/// judging pitch (74 MB on ami49 at 5 um).
inline constexpr std::size_t kFoldBoundBytes = std::size_t{1} << 20;

/// @brief Runs `fn(b, partial)` for every block b in [0, blocks) on the
/// global pool and adds each block's partial into `result` in block order.
///
/// Block b gets a partial of result.size() doubles, all +0.0, and adds its
/// share into it. Its partial is added into `result` as soon as blocks
/// 0 .. b-1 are in, by the thread that completes the run of ready blocks,
/// and is zeroed by that same pass for the next block to reuse. So every
/// cell of `result` adds block 0's partial first and block blocks-1's
/// last, whichever thread ran which block: the ordered reduction of the
/// file comment, without a partial per block. Inline runs (one pool
/// thread, a nested run, an InlineScope) fold right after each block and
/// hold a single partial.
///
/// When a partial takes at least kFoldBoundBytes, a block waits before it
/// takes one while it is the pool's thread count or more blocks past the
/// next block to fold, so at most that many partials are live however the
/// blocks finish. Smaller partials never wait: there a wait costs more
/// than the memory it saves. A block that throws releases every waiting
/// block, and blocks that have not taken a partial yet skip their work.
///
/// The zeroed partials belong to the calling thread. Below kFoldBoundBytes
/// they are kept for its next call (the annealing loop folds once per
/// proposed move); at or above it they are freed on return, so a fixed-grid
/// map at a judging pitch holds a partial per pool thread only while it is
/// built. A call whose block throws frees them all, so no partial is ever
/// reused dirty.
inline void fold_blocks(
    int blocks, std::vector<double>& result,
    const std::function<void(int, std::vector<double>&)>& fn) {
  struct Fold {
    Mutex mu;
    std::condition_variable_any folded;  ///< `next` moved or a block threw
    std::vector<std::vector<double>> done FICON_GUARDED_BY(mu);
    std::vector<char> ready FICON_GUARDED_BY(mu);
    int next FICON_GUARDED_BY(mu) = 0;         ///< next block to fold
    bool folding FICON_GUARDED_BY(mu) = false;  ///< a thread is folding
    bool failed FICON_GUARDED_BY(mu) = false;   ///< a block threw
  };
  if (blocks <= 0) return;
  // The calling thread's partials are taken for the call, so a fold nested
  // in one of its blocks starts without them, and go with the call unless
  // it hands them back at its end.
  thread_local std::vector<std::vector<double>> kept;
  std::vector<std::vector<double>> spare = std::exchange(kept, {});
  Fold fold;
  {
    const MutexLock lock(fold.mu);
    fold.done.resize(static_cast<std::size_t>(blocks));
    fold.ready.assign(static_cast<std::size_t>(blocks), 0);
    // At most `blocks` new partials join the spare ones, so handing them
    // back under the lock never allocates (or throws).
    spare.reserve(spare.size() + static_cast<std::size_t>(blocks));
  }
  const std::size_t cells = result.size();
  ThreadPool& pool = ThreadPool::global();
  const bool bounded = cells * sizeof(double) >= kFoldBoundBytes;
  const int ahead = bounded ? pool.threads() : blocks;
  pool.run(blocks, [&](int b) {
    std::vector<double> partial;
    {
      std::unique_lock<Mutex> lock(fold.mu);
      fold.folded.wait(lock, [&] {
        fold.mu.AssertHeld();  // wait predicates run with the lock held
        return fold.failed || b - fold.next < ahead;
      });
      fold.mu.AssertHeld();  // unique_lock is invisible to -Wthread-safety
      if (fold.failed) return;
      if (!spare.empty()) {
        partial = std::move(spare.back());
        spare.pop_back();
      }
    }
    try {
      partial.resize(cells);  // spare partials are zero over their size
      fn(b, partial);
    } catch (...) {
      {
        const MutexLock lock(fold.mu);
        fold.failed = true;
      }
      fold.folded.notify_all();
      throw;
    }
    std::unique_lock<Mutex> lock(fold.mu);
    fold.mu.AssertHeld();  // unique_lock is invisible to -Wthread-safety
    fold.done[static_cast<std::size_t>(b)] = std::move(partial);
    fold.ready[static_cast<std::size_t>(b)] = 1;
    if (fold.folding) return;  // the folding thread takes this one too
    fold.folding = true;
    while (fold.next < blocks &&
           fold.ready[static_cast<std::size_t>(fold.next)] != 0) {
      std::vector<double> p =
          std::move(fold.done[static_cast<std::size_t>(fold.next)]);
      lock.unlock();
      double* const sum = result.data();
      double* const add = p.data();
      for (std::size_t i = 0; i < cells; ++i) {
        sum[i] += add[i];
        add[i] = 0.0;
      }
      lock.lock();
      fold.mu.AssertHeld();
      spare.push_back(std::move(p));
      ++fold.next;
      if (bounded) fold.folded.notify_all();
    }
    fold.folding = false;
  });
  if (!bounded) kept = std::move(spare);
}

}  // namespace ficon
