// Tests for RNG determinism, statistics helpers, environment knobs and the
// fork-join thread pool.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

TEST(SplitMix64, DeterministicAndWellMixed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  SplitMix64 c(42);
  SplitMix64 d(43);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (c.next() != d.next()) ++differing;
  }
  EXPECT_EQ(differing, 64);  // adjacent seeds diverge immediately
}

TEST(Rng, SeedDeterminism) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.uniform_int(0, 100), b.uniform_int(0, 100));
  }
}

TEST(Rng, UniformRangesRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const int v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    const std::size_t idx = rng.index(5);
    EXPECT_LT(idx, 5u);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(2);
  bool lo = false, hi = false;
  for (int i = 0; i < 500 && !(lo && hi); ++i) {
    const int v = rng.uniform_int(0, 3);
    lo = lo || v == 0;
    hi = hi || v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, RejectsEmptyRanges) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(RunningStats, MeanMinMaxVariance) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(TopFractionMean, PaperCostSemantics) {
  // 10 values, top 10% = the single largest.
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 100};
  EXPECT_DOUBLE_EQ(top_fraction_mean(v, 0.10), 100.0);
  // Top 30% = mean of the three largest.
  EXPECT_DOUBLE_EQ(top_fraction_mean(v, 0.30), (100.0 + 9.0 + 8.0) / 3.0);
  // Whole set.
  EXPECT_DOUBLE_EQ(top_fraction_mean(v, 1.0), 14.5);
}

TEST(TopFractionMean, AlwaysTakesAtLeastOne) {
  std::vector<double> v{3.0, 1.0};
  EXPECT_DOUBLE_EQ(top_fraction_mean(v, 0.01), 3.0);
  EXPECT_DOUBLE_EQ(top_fraction_mean({}, 0.1), 0.0);
  EXPECT_THROW(top_fraction_mean(v, 0.0), std::invalid_argument);
  EXPECT_THROW(top_fraction_mean(v, 1.5), std::invalid_argument);
}

TEST(Pearson, KnownCorrelations) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> z{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
  const std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_EQ(pearson(x, c), 0.0);
}

TEST(Spearman, RanksWithTiesAndKnownCorrelations) {
  EXPECT_EQ(ranks(std::vector<double>{30, 10, 20, 20}),
            (std::vector<double>{4, 1, 2.5, 2.5}));
  const std::vector<double> x{1, 2, 3, 4, 5};
  // Monotone but not linear: rank correlation 1, Pearson below it.
  const std::vector<double> cubes{1, 8, 27, 64, 125};
  EXPECT_NEAR(spearman(x, cubes), 1.0, 1e-12);
  EXPECT_LT(pearson(x, cubes), 0.99);
  // Two adjacent swaps: 1 - 6 * sum(d^2) / (n (n^2 - 1)) = 1 - 24 / 120.
  const std::vector<double> swapped{2, 1, 4, 3, 5};
  EXPECT_NEAR(spearman(x, swapped), 0.8, 1e-12);
  const std::vector<double> c{3, 3, 3, 3, 3};
  EXPECT_EQ(spearman(x, c), 0.0);
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("FICON_TEST_INT", "17", 1);
  ::setenv("FICON_TEST_BAD", "not-a-number", 1);
  ::setenv("FICON_TEST_DBL", "2.5", 1);
  ::setenv("FICON_TEST_LIST", "a,b,c", 1);
  EXPECT_EQ(env_int("FICON_TEST_INT", 3), 17);
  EXPECT_EQ(env_int("FICON_TEST_BAD", 3), 3);
  EXPECT_EQ(env_int("FICON_TEST_MISSING", 5), 5);
  EXPECT_DOUBLE_EQ(env_double("FICON_TEST_DBL", 0.1), 2.5);
  EXPECT_EQ(env_string("FICON_TEST_MISSING", "dflt"), "dflt");
  const auto list = env_list("FICON_TEST_LIST", {"x"});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "a");
  EXPECT_EQ(list[2], "c");
  EXPECT_EQ(env_list("FICON_TEST_MISSING", {"x"}),
            std::vector<std::string>{"x"});
  ::unsetenv("FICON_TEST_INT");
  ::unsetenv("FICON_TEST_BAD");
  ::unsetenv("FICON_TEST_DBL");
  ::unsetenv("FICON_TEST_LIST");
}

TEST(ThreadPool, RunsEveryBlockExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), std::max(1, threads));
    constexpr int kBlocks = 64;
    std::vector<std::atomic<int>> hits(kBlocks);
    pool.run(kBlocks, [&](int b) { hits[static_cast<std::size_t>(b)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run(17, [&](int b) { sum += b; });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPool, NestedRunExecutesInlineInBlockOrder) {
  ThreadPool pool(4);
  std::atomic<bool> ordered{true};
  pool.run(4, [&](int) {
    // A nested run() from inside a pool task must execute inline and in
    // block order (no deadlock, no interleaving within this task).
    std::vector<int> seen;
    pool.run(8, [&](int inner) { seen.push_back(inner); });
    std::vector<int> want(8);
    std::iota(want.begin(), want.end(), 0);
    if (seen != want) ordered = false;
  });
  EXPECT_TRUE(ordered.load());
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.run(16,
               [&](int b) {
                 if (b % 3 == 0) throw std::runtime_error("block failed");
                 completed++;
               }),
      std::runtime_error);
  // Non-throwing blocks all still ran (failure does not cancel the job).
  EXPECT_EQ(completed.load(), 10);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.run(5, [&](int b) { order.push_back(b); });  // no synchronization
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, DeterministicBlocking) {
  // Block layout depends on the item count only — the invariant behind
  // thread-count-independent reductions.
  EXPECT_EQ(deterministic_block_count(0), 0);
  EXPECT_EQ(deterministic_block_count(1), 1);
  EXPECT_EQ(deterministic_block_count(7), 7);
  EXPECT_EQ(deterministic_block_count(1000), 16);
  for (const std::size_t items : {1ul, 5ul, 16ul, 1000ul}) {
    const int blocks = deterministic_block_count(items);
    std::size_t covered = 0;
    for (int b = 0; b < blocks; ++b) {
      const BlockRange r = block_range(items, blocks, b);
      EXPECT_EQ(r.begin, covered);  // contiguous, ordered partition
      EXPECT_LE(r.end, items);
      covered = r.end;
    }
    EXPECT_EQ(covered, items);
  }
}

TEST(ThreadPool, GlobalPoolResizable) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().threads(), 3);
  std::atomic<int> sum{0};
  ThreadPool::global().run(10, [&](int b) { sum += b; });
  EXPECT_EQ(sum.load(), 45);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().threads(), 1);
}

/// Partials of 1 MiB, the smallest whose count fold_blocks() bounds.
constexpr std::size_t kBoundedCells = kFoldBoundBytes / sizeof(double);

/// Block b's share in a fold_blocks() test: a value per cell that differs
/// by block and cell, so the sum's bits depend on the order of the adds.
double share(int b, std::size_t i) {
  return 1.0 / (3.0 + b) + 1e-7 * static_cast<double>(i % 97);
}

/// The bits of the in-order sum of blocks 0 .. 15's shares over `cells`.
std::vector<std::uint64_t> in_order_sum(std::size_t cells) {
  std::vector<double> sum(cells, 0.0);
  for (int b = 0; b < 16; ++b) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += share(b, i);
  }
  std::vector<std::uint64_t> bits;
  for (const double v : sum) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// Folds blocks 0 .. 15's shares over `cells` and returns the bits of the
/// result.
std::vector<std::uint64_t> fold_shares(std::size_t cells) {
  std::vector<double> result(cells, 0.0);
  fold_blocks(16, result, [](int b, std::vector<double>& partial) {
    for (std::size_t i = 0; i < partial.size(); ++i) {
      partial[i] += share(b, i);
    }
  });
  std::vector<std::uint64_t> bits;
  for (const double v : result) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

TEST(FoldBlocks, LargePartialsAreBoundedByThePoolThreads) {
  // Block 0 finishes last, so without the bound every other block would
  // park its partial until block 0 is folded. With it a block waits while
  // it is the pool's thread count past the next fold, so the blocks see
  // no more distinct partial buffers than threads, and the sum is the
  // in-order sum.
  const std::vector<std::uint64_t> want = in_order_sum(kBoundedCells);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool::set_global_threads(threads);
    std::vector<double> result(kBoundedCells, 0.0);
    std::mutex mu;
    std::set<const double*> buffers;
    fold_blocks(16, result, [&](int b, std::vector<double>& partial) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        buffers.insert(partial.data());
      }
      if (b == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      for (std::size_t i = 0; i < partial.size(); ++i) {
        partial[i] += share(b, i);
      }
    });
    EXPECT_LE(buffers.size(), static_cast<std::size_t>(threads));
    std::vector<std::uint64_t> got;
    for (const double v : result) got.push_back(std::bit_cast<std::uint64_t>(v));
    EXPECT_TRUE(got == want);
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(FoldBlocks, APartialIsNeverReusedDirtyAfterABlockThrows) {
  // Block 5 adds its share and throws, leaving its partial dirty. The
  // next fold on the same thread, with partials kept between calls
  // (small) or freed on return (large), must still give the in-order sum.
  for (const std::size_t cells : {std::size_t{1024}, kBoundedCells}) {
    const std::vector<std::uint64_t> want = in_order_sum(cells);
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "cells=" << cells << " threads=" << threads);
      ThreadPool::set_global_threads(threads);
      EXPECT_TRUE(fold_shares(cells) == want);
      std::vector<double> result(cells, 0.0);
      EXPECT_THROW(fold_blocks(16, result,
                               [](int b, std::vector<double>& partial) {
                                 for (std::size_t i = 0; i < partial.size();
                                      ++i) {
                                   partial[i] += share(b, i);
                                 }
                                 if (b == 5) {
                                   throw std::runtime_error("block failed");
                                 }
                               }),
                   std::runtime_error);
      EXPECT_TRUE(fold_shares(cells) == want);
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(FoldBlocks, AThrowingBlockReleasesTheWaitingBlocks) {
  // Block 0 throws after the blocks past the bound have started waiting
  // for it; they must stop waiting and the error reach the caller.
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool::set_global_threads(threads);
    std::vector<double> result(kBoundedCells, 0.0);
    EXPECT_THROW(
        fold_blocks(16, result,
                    [](int b, std::vector<double>&) {
                      if (b != 0) return;
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(20));
                      throw std::runtime_error("block failed");
                    }),
        std::runtime_error);
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

}  // namespace
}  // namespace ficon
