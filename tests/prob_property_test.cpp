// Randomized property tests on the probability engine — invariants that
// must hold for ALL regions and range shapes, checked over random draws.
// Includes the kernel equivalence contract: a long-lived ProbKernel must
// agree bitwise with a fresh one, and its Theorem 1 with the scalar libm
// reference (ApproxRegionProbability::theorem1) to 1e-12 with identical
// invalid samples; plus a value pin of both on the kernel throughput
// harness's workload.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "congestion/approx.hpp"
#include "congestion/irregular_grid.hpp"
#include "congestion/path_prob.hpp"
#include "congestion/prob_kernel.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

class ProbProperties : public ::testing::Test {
 protected:
  GridRect random_region(int g1, int g2) {
    const int x1 = rng_.uniform_int(0, g1 - 1);
    const int x2 = rng_.uniform_int(x1, g1 - 1);
    const int y1 = rng_.uniform_int(0, g2 - 1);
    const int y2 = rng_.uniform_int(y1, g2 - 1);
    return GridRect{x1, y1, x2, y2};
  }

  NetGridShape random_shape() {
    return NetGridShape{rng_.uniform_int(2, 24), rng_.uniform_int(2, 24),
                        rng_.chance(0.5)};
  }

  Rng rng_{2024};
  LogFactorialTable table_;
  PathProbability prob_{table_};
};

TEST_F(ProbProperties, ReversalSymmetry) {
  // Reversing every path (walking sink -> source) is a bijection, so a
  // region and its 180-degree rotation have equal crossing probability.
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    const GridRect rotated{s.g1 - 1 - r.xhi, s.g2 - 1 - r.yhi,
                           s.g1 - 1 - r.xlo, s.g2 - 1 - r.ylo};
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_exact(s, rotated), 1e-10)
        << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
  }
}

TEST_F(ProbProperties, TypeMirrorConsistency) {
  // A type II net is the y-mirror of a type I net: region probabilities
  // must match under the mirror map.
  for (int trial = 0; trial < 300; ++trial) {
    NetGridShape s = random_shape();
    s.type2 = true;
    NetGridShape mirrored = s;
    mirrored.type2 = false;
    const GridRect r = random_region(s.g1, s.g2);
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_exact(mirrored,
                                               mirror_region_y(s.g2, r)),
                1e-10);
  }
}

TEST_F(ProbProperties, MonotoneUnderRegionGrowth) {
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    const GridRect grown{std::max(0, r.xlo - 1), std::max(0, r.ylo - 1),
                         std::min(s.g1 - 1, r.xhi + 1),
                         std::min(s.g2 - 1, r.yhi + 1)};
    EXPECT_LE(prob_.region_probability_exact(s, r),
              prob_.region_probability_exact(s, grown) + 1e-12);
  }
}

TEST_F(ProbProperties, UnionBoundOnStripeSplits) {
  // Splitting a full-height stripe vertically: every path crosses the
  // stripe, so P(A) + P(B) >= 1; each part alone is <= 1.
  for (int trial = 0; trial < 200; ++trial) {
    const NetGridShape s = random_shape();
    const int x1 = rng_.uniform_int(0, s.g1 - 1);
    const int x2 = rng_.uniform_int(x1, s.g1 - 1);
    const int split = rng_.uniform_int(0, s.g2 - 2);
    const GridRect lower{x1, 0, x2, split};
    const GridRect upper{x1, split + 1, x2, s.g2 - 1};
    const GridRect full{x1, 0, x2, s.g2 - 1};
    const double pl = prob_.region_probability_exact(s, lower);
    const double pu = prob_.region_probability_exact(s, upper);
    EXPECT_NEAR(prob_.region_probability_exact(s, full), 1.0, 1e-12);
    EXPECT_GE(pl + pu + 1e-12, 1.0);
    EXPECT_LE(pl, 1.0 + 1e-12);
    EXPECT_LE(pu, 1.0 + 1e-12);
  }
}

TEST_F(ProbProperties, CellProbabilitiesBoundRegionProbability) {
  // max cell P in region <= region P <= sum of cell Ps (union bound).
  for (int trial = 0; trial < 120; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    double max_cell = 0.0, sum_cells = 0.0;
    for (int y = r.ylo; y <= r.yhi; ++y) {
      for (int x = r.xlo; x <= r.xhi; ++x) {
        const double p = prob_.cell_probability(s, x, y);
        max_cell = std::max(max_cell, p);
        sum_cells += p;
      }
    }
    const double region = prob_.region_probability_exact(s, r);
    EXPECT_GE(region + 1e-10, max_cell);
    EXPECT_LE(region, sum_cells + 1e-10);
  }
}

TEST_F(ProbProperties, RegionProbabilityStaysInUnitInterval) {
  // P is a probability: [0,1] for every shape/region draw, including the
  // degenerate single-row/column shapes where every path is forced.
  for (int trial = 0; trial < 400; ++trial) {
    // 1-in-5 draws force a degenerate shape (g1 == 1 or g2 == 1).
    NetGridShape s = random_shape();
    if (trial % 5 == 0) {
      (rng_.chance(0.5) ? s.g1 : s.g2) = 1;
    }
    const GridRect r = random_region(s.g1, s.g2);
    const double p = prob_.region_probability_exact(s, r);
    EXPECT_GE(p, 0.0) << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
    EXPECT_LE(p, 1.0) << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
    // Cell probabilities obey the same bounds (sampled corner).
    const double pc = prob_.cell_probability(s, r.xlo, r.ylo);
    EXPECT_GE(pc, 0.0);
    EXPECT_LE(pc, 1.0);
    // A degenerate shape has exactly one path: every cell on it is
    // crossed with certainty.
    if (s.degenerate()) {
      EXPECT_NEAR(p, 1.0, 1e-12);
    }
  }
}

TEST_F(ProbProperties, TransposeSymmetry) {
  // Swapping the x and y axes is a bijection on monotone lattice paths
  // (for both net types), so P over (g1,g2) at region r equals P over
  // (g2,g1) at the transposed region.
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    const NetGridShape t{s.g2, s.g1, s.type2};
    const GridRect transposed{r.ylo, r.xlo, r.yhi, r.xhi};
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_exact(t, transposed), 1e-10)
        << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2 << " region "
        << r;
  }
}

TEST_F(ProbProperties, MonotoneOverRandomNestedRegions) {
  // Containment monotonicity for ARBITRARY nesting (the RegionGrowth test
  // above only grows by one ring): inner ⊆ outer implies P(inner) <=
  // P(outer), because every path crossing the inner region crosses the
  // outer one.
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect outer = random_region(s.g1, s.g2);
    const int xlo = rng_.uniform_int(outer.xlo, outer.xhi);
    const int xhi = rng_.uniform_int(xlo, outer.xhi);
    const int ylo = rng_.uniform_int(outer.ylo, outer.yhi);
    const int yhi = rng_.uniform_int(ylo, outer.yhi);
    const GridRect inner{xlo, ylo, xhi, yhi};
    EXPECT_LE(prob_.region_probability_exact(s, inner),
              prob_.region_probability_exact(s, outer) + 1e-12)
        << "g=(" << s.g1 << ',' << s.g2 << ") inner " << inner << " outer "
        << outer;
  }
}

TEST_F(ProbProperties, OracleAgreesEverywhereRandomized) {
  for (int trial = 0; trial < 150; ++trial) {
    const NetGridShape s = random_shape();
    const GridRect r = random_region(s.g1, s.g2);
    EXPECT_NEAR(prob_.region_probability_exact(s, r),
                prob_.region_probability_oracle(s, r), 1e-10)
        << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2 << " region "
        << r;
  }
}

TEST_F(ProbProperties, ApproxPolicyBoundedErrorRandomized) {
  // The Theorem 1 policy inherits the paper's Figure 8(d) weakness: terms
  // adjacent to a pin are underestimated, and on LARGE regions hugging the
  // pin-side boundary the underestimate accumulates. So: tight bound for
  // regions clear of the pin-adjacent frame, loose bound globally. (The
  // default kBandedExact strategy is exact everywhere; kTheorem1 is the
  // paper-fidelity mode.)
  ProbKernel kernel(prob_);
  for (int trial = 0; trial < 300; ++trial) {
    const NetGridShape s{rng_.uniform_int(12, 40), rng_.uniform_int(12, 40),
                         rng_.chance(0.5)};
    const GridRect r = random_region(s.g1, s.g2);
    const double expected = prob_.region_covers_pin(s, r)
                                ? 1.0
                                : prob_.region_probability_exact(s, r);
    const double got = kernel.region_probability(s, r);
    const bool near_pin_frame =
        r.xlo <= 1 || r.ylo <= 1 || r.xhi >= s.g1 - 2 || r.yhi >= s.g2 - 2;
    EXPECT_NEAR(got, expected, near_pin_frame ? 0.20 : 0.06)
        << "g=(" << s.g1 << ',' << s.g2 << ") region " << r
        << " near_pin_frame=" << near_pin_frame;
  }
}

TEST_F(ProbProperties, ReusedKernelMatchesFreshKernelBitwise) {
  // The scorer keeps one kernel per block and reuses its scratch across
  // nets and regions: reuse must never change a bit against a fresh
  // kernel per region.
  ProbKernel kernel(prob_);
  for (int trial = 0; trial < 120; ++trial) {
    const NetGridShape s = random_shape();
    std::vector<GridRect> regions;
    for (int i = 0; i < 17; ++i) regions.push_back(random_region(s.g1, s.g2));
    // Raw out-of-range rects must clamp the same way on both kernels.
    regions.push_back(GridRect{-3, -2, s.g1 + 4, 2});
    regions.push_back(GridRect{s.g1 - 2, -5, s.g1 + 6, s.g2 + 9});
    for (const GridRect& r : regions) {
      EXPECT_EQ(kernel.region_probability(s, r),
                ProbKernel(prob_).region_probability(s, r))
          << "g=(" << s.g1 << ',' << s.g2 << ") t2=" << s.type2 << " region "
          << r;
    }
  }
}

TEST_F(ProbProperties, BatchTermSamplersMarkExactlyThePaperCellsInvalid) {
  // Section 4.5: the four pin-adjacent cells are the ONLY invalid top-exit
  // samples on integer abscissae, and the kernel must mark exactly those
  // with NaN (the batch encoding of the scalar probe's nullopt).
  const int g1 = 9, g2 = 7;
  ProbKernel kernel(prob_);
  std::vector<double> xs(static_cast<std::size_t>(g1));
  for (int x = 0; x < g1; ++x) xs[static_cast<std::size_t>(x)] = x;
  std::vector<double> out(xs.size());
  for (int y2 = 0; y2 < g2; ++y2) {
    kernel.eval_top_exit_terms(g1, g2, y2, xs, out);
    for (int x = 0; x < g1; ++x) {
      const bool predicted = (x == 0 && y2 == 0) ||
                             (x == g1 - 2 && y2 == g2 - 1) ||
                             (x == g1 - 1 && y2 == g2 - 2) ||
                             (x == g1 - 1 && y2 == g2 - 1);
      EXPECT_EQ(std::isnan(out[static_cast<std::size_t>(x)]), predicted)
          << "x=" << x << " y2=" << y2;
    }
  }
  // The right-exit mirror: same four cells under the x/y swap.
  std::vector<double> ys(static_cast<std::size_t>(g2));
  for (int y = 0; y < g2; ++y) ys[static_cast<std::size_t>(y)] = y;
  std::vector<double> rout(ys.size());
  for (int x2 = 0; x2 < g1; ++x2) {
    kernel.eval_right_exit_terms(g1, g2, x2, ys, rout);
    for (int y = 0; y < g2; ++y) {
      const bool predicted = (x2 == 0 && y == 0) ||
                             (x2 == g1 - 1 && y == g2 - 2) ||
                             (x2 == g1 - 2 && y == g2 - 1) ||
                             (x2 == g1 - 1 && y == g2 - 1);
      EXPECT_EQ(std::isnan(rout[static_cast<std::size_t>(y)]), predicted)
          << "x2=" << x2 << " y=" << y;
    }
  }
}

TEST_F(ProbProperties, TheoremOneKernelAgreesWithScalarNullopt) {
  // The kernel's Theorem 1 must return nullopt exactly where the scalar
  // reference does — the fallback decision — and its values must agree
  // with the reference to 1e-12. The vector kernel replaces only the pdf
  // evaluation (custom exp); the validity predicates are shared IEEE
  // expressions.
  ProbKernel kernel(prob_);
  const ApproxRegionProbability scalar(prob_);
  for (int trial = 0; trial < 200; ++trial) {
    const NetGridShape s{rng_.uniform_int(5, 40), rng_.uniform_int(5, 40),
                         false};
    for (int i = 0; i < 16; ++i) {
      const GridRect r = random_region(s.g1, s.g2);
      const auto got = kernel.theorem1(s.g1, s.g2, r);
      const auto ref = scalar.theorem1(s.g1, s.g2, r);
      EXPECT_EQ(got.has_value(), ref.has_value())
          << "g=(" << s.g1 << ',' << s.g2 << ") region " << r;
      if (got && ref) {
        EXPECT_NEAR(*got, *ref, 1e-12) << "region " << r;
      }
    }
  }
}

/// bench_micro_formula's harness regions: a fixed LCG draws interior,
/// pin-free rects on a g x g range, so forced Theorem 1 never
/// short-circuits.
std::vector<GridRect> harness_regions(int g, std::size_t n) {
  std::vector<GridRect> regions;
  regions.reserve(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state](int lo, int hi) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return lo + static_cast<int>((state >> 33) %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const int x1 = next(8, g - 136);
    const int y1 = next(8, g - 136);
    regions.push_back(
        GridRect{x1, y1, x1 + next(3, 120), y1 + next(3, 120)});
  }
  return regions;
}

TEST_F(ProbProperties, KernelHarnessChecksumsArePinned) {
  // The value side of bench_micro_formula's throughput harness: forced
  // Theorem 1 (exact fallbacks off) on a 400x400 type-I range, summed in
  // order over its first n regions. Both implementations are held to
  // their recorded sums at 1e-9 relative, which absorbs libm differences
  // between compilers on the scalar reference.
  constexpr int kG = 400;
  ApproxOptions forced;
  forced.small_region_threshold = 0;
  forced.narrow_range_threshold = 0;
  ProbKernel kernel(prob_, forced);
  const ApproxRegionProbability scalar(prob_, forced);
  const NetGridShape shape{kG, kG, false};
  struct Pin {
    std::size_t n;
    double kernel_sum;
    double scalar_sum;
  };
  const Pin pins[] = {
      {1, 1.0133794557501018e-08, 1.0133794557500994e-08},
      {8, 3.8129844826052266, 3.812984482605227},
      {64, 30.761287336545884, 30.761287336545895},
      {512, 219.18720604061471, 219.18720604061477},
  };
  const auto relative_delta = [](double got, double pinned) {
    return std::abs(got - pinned) / std::max(std::abs(got), std::abs(pinned));
  };
  for (const Pin& pin : pins) {
    double kernel_sum = 0.0;
    double scalar_sum = 0.0;
    for (const GridRect& r : harness_regions(kG, pin.n)) {
      kernel_sum += kernel.region_probability(shape, r);
      scalar_sum += scalar.theorem1(kG, kG, r).value_or(
          std::numeric_limits<double>::quiet_NaN());
    }
    EXPECT_LE(relative_delta(kernel_sum, pin.kernel_sum), 1e-9)
        << "n=" << pin.n << " kernel sum " << kernel_sum;
    EXPECT_LE(relative_delta(scalar_sum, pin.scalar_sum), 1e-9)
        << "n=" << pin.n << " scalar sum " << scalar_sum;
  }
}

TEST_F(ProbProperties, BatchedSimdEvaluateBitIdenticalAcrossThreadCounts) {
  // End-to-end determinism pin for the kernel path: the kTheorem1
  // strategy on the vector kernel must produce bit-identical flow grids at
  // every thread count (same contract as determinism_test, which covers
  // the default strategies).
  Rng rng(77);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 150; ++i) {
    const Point a{static_cast<double>(rng.uniform_int(0, 900)),
                  static_cast<double>(rng.uniform_int(0, 700))};
    const Point b{static_cast<double>(rng.uniform_int(0, 900)),
                  static_cast<double>(rng.uniform_int(0, 700))};
    nets.push_back(TwoPinNet{a, b, i});
  }
  const Rect chip{0.0, 0.0, 930.0, 730.0};
  IrregularGridParams params;
  params.strategy = IrEvalStrategy::kTheorem1;
  const IrregularGridModel model(params);

  ThreadPool::set_global_threads(1);
  const IrregularCongestionMap reference = model.evaluate(nets, chip);
  ASSERT_GT(reference.cell_count(), 0);

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    const IrregularCongestionMap map = model.evaluate(nets, chip);
    ASSERT_EQ(map.nx(), reference.nx());
    ASSERT_EQ(map.ny(), reference.ny());
    for (int iy = 0; iy < map.ny(); ++iy) {
      for (int ix = 0; ix < map.nx(); ++ix) {
        EXPECT_EQ(map.flow(ix, iy), reference.flow(ix, iy))
            << "threads=" << threads << " cell=(" << ix << ',' << iy << ')';
      }
    }
    EXPECT_EQ(map.top_fraction_cost(0.10), reference.top_fraction_cost(0.10));
  }
  ThreadPool::set_global_threads(1);
}

TEST_F(ProbProperties, DiagonalSumsStayOneUnderMirror) {
  // Conservation must survive the type II mirror for every shape drawn.
  for (int trial = 0; trial < 60; ++trial) {
    const NetGridShape s = random_shape();
    for (int d = 0; d <= s.g1 + s.g2 - 2; d += 3) {
      double sum = 0.0;
      for (int x = 0; x < s.g1; ++x) {
        const int y = s.type2 ? (s.g2 - 1) - (d - x) : d - x;
        if (y >= 0 && y < s.g2) sum += prob_.cell_probability(s, x, y);
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace ficon
