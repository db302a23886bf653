// Theorem 1 validation: the normal approximation of Formula 3 and the
// precision rules of section 4.5.
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "congestion/approx.hpp"
#include "congestion/prob_kernel.hpp"
#include "numeric/factorial.hpp"

namespace ficon {
namespace {

class ApproxFixture : public ::testing::Test {
 protected:
  LogFactorialTable table_;
  PathProbability exact_{table_};
  ApproxRegionProbability approx_{exact_};
  ProbKernel kernel_{exact_};
};

TEST_F(ApproxFixture, OptionsValidationRejectsBadSimpsonPanels) {
  // Simpson's composite rule needs an even panel count of at least 2;
  // anything else must fail loudly at construction, not integrate garbage.
  // Both Theorem 1 implementations validate on their own.
  for (const int panels : {-4, -1, 0, 1, 3, 15}) {
    ApproxOptions o;
    o.simpson_panels = panels;
    EXPECT_THROW(ApproxRegionProbability(exact_, o), std::invalid_argument)
        << "panels=" << panels;
    EXPECT_THROW(ProbKernel(exact_, o), std::invalid_argument)
        << "panels=" << panels;
  }
  for (const int panels : {2, 4, 16, 64}) {
    ApproxOptions o;
    o.simpson_panels = panels;
    EXPECT_NO_THROW(ApproxRegionProbability(exact_, o)) << "panels=" << panels;
    EXPECT_NO_THROW(ProbKernel(exact_, o)) << "panels=" << panels;
  }
}

TEST_F(ApproxFixture, OptionsValidationRejectsNegativeThresholds) {
  {
    ApproxOptions o;
    o.small_range_threshold = -1;
    EXPECT_THROW(ApproxRegionProbability(exact_, o), std::invalid_argument);
    EXPECT_THROW(ProbKernel(exact_, o), std::invalid_argument);
  }
  {
    ApproxOptions o;
    o.small_region_threshold = -3;
    EXPECT_THROW(ApproxRegionProbability(exact_, o), std::invalid_argument);
    EXPECT_THROW(ProbKernel(exact_, o), std::invalid_argument);
  }
  {
    ApproxOptions o;
    o.narrow_range_threshold = -2;
    EXPECT_THROW(ApproxRegionProbability(exact_, o), std::invalid_argument);
    EXPECT_THROW(ProbKernel(exact_, o), std::invalid_argument);
  }
  // Zero thresholds are legal: they just disable the exact-fallback bands.
  ApproxOptions zeros;
  zeros.small_range_threshold = 0;
  zeros.small_region_threshold = 0;
  zeros.narrow_range_threshold = 0;
  EXPECT_NO_THROW(ApproxRegionProbability(exact_, zeros));
  EXPECT_NO_THROW(ProbKernel(exact_, zeros));
}

TEST_F(ApproxFixture, ErrorCellsAreExactlyThePaperList) {
  // Section 4.5: for a type I net, Function (1)'s mu ratio leaves (0,1)
  // exactly at cells (0,0), (g1-2,g2-1), (g1-1,g2-2) and (g1-1,g2-1) of the
  // routing range — the gray cells of Figure 7. Probe the top-exit term at
  // every (x, y2) pair and check invalidity occurs exactly where predicted.
  const int g1 = 9, g2 = 7;
  for (int y2 = 0; y2 < g2; ++y2) {
    for (int x = 0; x < g1; ++x) {
      const bool invalid =
          !approx_.top_exit_term_approx(g1, g2, static_cast<double>(x), y2)
               .has_value();
      const bool predicted = (x == 0 && y2 == 0) ||
                             (x == g1 - 2 && y2 == g2 - 1) ||
                             (x == g1 - 1 && y2 == g2 - 2) ||
                             (x == g1 - 1 && y2 == g2 - 1);
      EXPECT_EQ(invalid, predicted) << "x=" << x << " y2=" << y2;
    }
  }
}

TEST_F(ApproxFixture, Figure8CurveDeviationBelowPointZeroFive) {
  // Paper, Figure 8: 31x21 type I net, IR-grid top edge at y2 = 15,
  // x = 10..20 — approximation "extremely accurate"; and generally the
  // deviation of the term values stays below 0.05.
  const int g1 = 31, g2 = 21, y2 = 15;
  for (int x = 10; x <= 20; ++x) {
    const double exact = approx_.top_exit_term_exact(g1, g2, x, y2);
    const auto approx =
        approx_.top_exit_term_approx(g1, g2, static_cast<double>(x), y2);
    ASSERT_TRUE(approx.has_value()) << "x=" << x;
    EXPECT_NEAR(*approx, exact, 0.05) << "x=" << x;
  }
}

TEST_F(ApproxFixture, TermDeviationBoundAwayFromPins) {
  // The paper claims deviation "generally less than 0.05" for the term
  // curves. The only weak zone of the transformation is the immediate
  // neighbourhood of the two pins (which the algorithm's probability-1 pin
  // rule removes from play); everywhere else the 0.05 bound must hold.
  // Balanced shapes only: on strongly skewed ranges (e.g. 6x40) the
  // x-direction term has too little support for the normal chain and the
  // policy routes those ranges to exact Formula 3 instead (tested below).
  for (const auto& [g1, g2] : std::vector<std::pair<int, int>>{
           {31, 21}, {12, 12}, {25, 13}, {13, 25}, {40, 40}}) {
    for (int y2 = 0; y2 < g2 - 1; ++y2) {
      for (int x = 0; x < g1; ++x) {
        const int source_dist = x + y2;
        const int sink_dist = (g1 - 1 - x) + (g2 - 1 - y2);
        if (source_dist <= 3 || sink_dist <= 3) continue;  // pin zone
        const auto approx =
            approx_.top_exit_term_approx(g1, g2, static_cast<double>(x), y2);
        ASSERT_TRUE(approx.has_value())
            << "g=(" << g1 << ',' << g2 << ") x=" << x << " y2=" << y2;
        const double exact = approx_.top_exit_term_exact(g1, g2, x, y2);
        EXPECT_NEAR(*approx, exact, 0.05)
            << "g=(" << g1 << ',' << g2 << ") x=" << x << " y2=" << y2;
      }
    }
  }
}

TEST_F(ApproxFixture, NarrowRangesRouteToExactFormula) {
  // min(g1,g2) below the narrow-range threshold: the policy must agree with
  // Formula 3 to machine precision on every region (away from pins).
  for (const auto& [g1, g2] :
       std::vector<std::pair<int, int>>{{8, 25}, {6, 40}, {40, 6}, {11, 11}}) {
    const NetGridShape s{g1, g2, false};
    for (int x1 = 0; x1 < g1; x1 += 2) {
      for (int y1 = 0; y1 < g2; y1 += 3) {
        const GridRect r{x1, y1, std::min(x1 + 3, g1 - 1),
                         std::min(y1 + 5, g2 - 1)};
        const double expected = exact_.region_covers_pin(s, r)
                                    ? 1.0
                                    : exact_.region_probability_exact(s, r);
        EXPECT_NEAR(kernel_.region_probability(s, r), expected, 1e-12)
            << "g=(" << g1 << ',' << g2 << ") region " << r;
      }
    }
  }
}

TEST_F(ApproxFixture, WorstCaseRegionErrorBounded) {
  // Exhaustive policy-vs-exact sweep on a balanced range: the end-to-end
  // error of any single IR-grid stays within ~0.055.
  const int g1 = 31, g2 = 21;
  const NetGridShape s{g1, g2, false};
  double worst = 0.0;
  for (int x1 = 0; x1 < g1; ++x1) {
    for (int x2 = x1; x2 < g1; x2 += 2) {
      for (int y1 = 0; y1 < g2; ++y1) {
        for (int y2 = y1; y2 < g2; y2 += 2) {
          const GridRect r{x1, y1, x2, y2};
          const double expected = exact_.region_covers_pin(s, r)
                                      ? 1.0
                                      : exact_.region_probability_exact(s, r);
          worst = std::max(worst,
                           std::abs(kernel_.region_probability(s, r) - expected));
        }
      }
    }
  }
  EXPECT_LE(worst, 0.055);
}

TEST_F(ApproxFixture, RightTermMirrorsTopTermOnSquareRanges) {
  // On a square range the two exit directions are symmetric.
  const int g = 17;
  for (int c = 2; c < g - 2; ++c) {
    for (int v = 0; v < g - 1; ++v) {
      const auto top = approx_.top_exit_term_approx(g, g, v, c);
      const auto right = approx_.right_exit_term_approx(g, g, c, v);
      ASSERT_EQ(top.has_value(), right.has_value());
      if (top) {
        EXPECT_NEAR(*top, *right, 1e-12);
      }
      EXPECT_NEAR(approx_.top_exit_term_exact(g, g, v, c),
                  approx_.right_exit_term_exact(g, g, c, v), 1e-12);
    }
  }
}

TEST_F(ApproxFixture, Theorem1TracksExactOnInteriorRegions) {
  const int g1 = 31, g2 = 21;
  const NetGridShape s{g1, g2, false};
  for (const GridRect r : {GridRect{10, 8, 20, 15}, GridRect{5, 5, 8, 9},
                           GridRect{14, 2, 25, 6}, GridRect{2, 10, 28, 18},
                           GridRect{12, 12, 12, 12}}) {
    const auto approx = approx_.theorem1(g1, g2, r);
    ASSERT_TRUE(approx.has_value()) << r;
    const double exact = exact_.region_probability_exact(s, r);
    EXPECT_NEAR(*approx, exact, 0.05) << r;
  }
}

TEST_F(ApproxFixture, RegionProbabilityPolicyPinsGetOne) {
  const NetGridShape t1{20, 16, false};
  EXPECT_EQ(kernel_.region_probability(t1, GridRect{0, 0, 2, 2}), 1.0);
  EXPECT_EQ(kernel_.region_probability(t1, GridRect{18, 14, 19, 15}), 1.0);
  const NetGridShape t2{20, 16, true};
  EXPECT_EQ(kernel_.region_probability(t2, GridRect{0, 13, 2, 15}), 1.0);
  EXPECT_EQ(kernel_.region_probability(t2, GridRect{17, 0, 19, 3}), 1.0);
}

TEST_F(ApproxFixture, RegionProbabilityPolicyMatchesExactBroadly) {
  // End-to-end policy accuracy across a sweep of interior regions and both
  // net types: within a few percent of the exact Formula 3 value.
  for (const bool type2 : {false, true}) {
    const NetGridShape s{26, 19, type2};
    for (int x1 = 1; x1 < 24; x1 += 4) {
      for (int y1 = 1; y1 < 17; y1 += 3) {
        for (int w = 1; w <= 9; w += 4) {
          for (int h = 1; h <= 7; h += 3) {
            const GridRect r{x1, y1, std::min(x1 + w, 24), std::min(y1 + h, 17)};
            const double policy = kernel_.region_probability(s, r);
            const double exact = exact_.region_probability_exact(s, r);
            EXPECT_NEAR(policy, exact, 0.06)
                << "type2=" << type2 << " region " << r;
          }
        }
      }
    }
  }
}

TEST_F(ApproxFixture, SmallRangesFallBackToExact) {
  // Below the small-range threshold the policy must equal Formula 3 to
  // machine precision.
  for (const bool type2 : {false, true}) {
    for (int g1 = 2; g1 <= 4; ++g1) {
      for (int g2 = 2; g2 <= 3; ++g2) {
        const NetGridShape s{g1, g2, type2};
        for (int x = 0; x < g1; ++x) {
          for (int y = 0; y < g2; ++y) {
            const GridRect r{x, y, x, y};
            EXPECT_NEAR(kernel_.region_probability(s, r),
                        exact_.region_covers_pin(s, r)
                            ? 1.0
                            : exact_.region_probability_exact(s, r),
                        1e-12)
                << "g=(" << g1 << ',' << g2 << ") cell=(" << x << ',' << y
                << ")";
          }
        }
      }
    }
  }
}

TEST_F(ApproxFixture, DegenerateRangesAreCertain) {
  EXPECT_EQ(kernel_.region_probability(NetGridShape{1, 1, false},
                                       GridRect{0, 0, 0, 0}),
            1.0);
  EXPECT_EQ(kernel_.region_probability(NetGridShape{9, 1, false},
                                       GridRect{3, 0, 5, 0}),
            1.0);
  EXPECT_EQ(kernel_.region_probability(NetGridShape{1, 7, false},
                                       GridRect{0, 2, 0, 2}),
            1.0);
}

TEST_F(ApproxFixture, DisjointRegionsAreZero) {
  EXPECT_EQ(kernel_.region_probability(NetGridShape{10, 10, false},
                                       GridRect{12, 0, 14, 3}),
            0.0);
}

TEST_F(ApproxFixture, ContinuityCorrectionImprovesAccuracy) {
  // The +-1/2 continuity correction should (on aggregate) track the exact
  // sums better than integrating over the paper's literal [x1, x2].
  ApproxOptions literal;
  literal.continuity_correction = false;
  const ApproxRegionProbability approx_literal(exact_, literal);

  const int g1 = 31, g2 = 21;
  const NetGridShape s{g1, g2, false};
  double err_corrected = 0.0;
  double err_literal = 0.0;
  int count = 0;
  for (int x1 = 2; x1 < 26; x1 += 3) {
    for (int y1 = 2; y1 < 16; y1 += 3) {
      const GridRect r{x1, y1, std::min(x1 + 5, g1 - 2),
                       std::min(y1 + 4, g2 - 2)};
      const double exact = exact_.region_probability_exact(s, r);
      const auto c = approx_.theorem1(g1, g2, r);
      const auto l = approx_literal.theorem1(g1, g2, r);
      ASSERT_TRUE(c && l);
      err_corrected += std::abs(*c - exact);
      err_literal += std::abs(*l - exact);
      ++count;
    }
  }
  ASSERT_GT(count, 10);
  EXPECT_LT(err_corrected, err_literal);
}

TEST_F(ApproxFixture, ZeroWidthSpansKeepTheirExitMass) {
  // Regression: with continuity correction off, Simpson over the literal
  // [x1, x2] returns 0 for a width-0 span, so a region one fine column
  // (row) wide lost its whole top (right) exit sum — a single-cell region
  // scored exactly 0 from Theorem 1 while Formula 3 gives up to ~0.23
  // here. Width-0 spans must force the +-1/2 widening (the unit-width
  // integral is the continuity-corrected one-term sum).
  ApproxOptions literal;
  literal.continuity_correction = false;
  const ApproxRegionProbability approx_literal(exact_, literal);
  const int g1 = 31, g2 = 21;
  const NetGridShape s{g1, g2, false};
  double largest_exact = 0.0;
  for (int x = 10; x <= 20; x += 2) {
    for (int y = 8; y <= 14; y += 2) {
      const GridRect r{x, y, x, y};
      const auto th = approx_literal.theorem1(g1, g2, r);
      ASSERT_TRUE(th.has_value()) << r;
      const double exact = exact_.region_probability_exact(s, r);
      largest_exact = std::max(largest_exact, exact);
      EXPECT_NEAR(*th, exact, 0.02) << r;
    }
  }
  // Make sure the sweep actually contains cells with substantial mass —
  // otherwise the NEAR assertions above would pass vacuously.
  EXPECT_GT(largest_exact, 0.1);
}

TEST_F(ApproxFixture, OutOfRangeRegionsMatchClampedRegions) {
  // region_probability clamps the region to the routing range before
  // scoring; a region poking past the range must behave exactly like its
  // clamped counterpart on every internal path (pin rule, small/narrow
  // exact fallbacks, Theorem 1 and its exact fallback).
  for (const bool type2 : {false, true}) {
    for (const auto& [g1, g2] :
         std::vector<std::pair<int, int>>{{26, 19}, {8, 25}, {3, 3}}) {
      const NetGridShape s{g1, g2, type2};
      for (const GridRect raw :
           {GridRect{-3, -2, 4, 5}, GridRect{g1 - 5, g2 - 4, g1 + 6, g2 + 9},
            GridRect{2, -7, g1 + 1, 4}, GridRect{-1, 3, g1 + 2, g2 - 3}}) {
        const GridRect clamped{std::max(raw.xlo, 0), std::max(raw.ylo, 0),
                               std::min(raw.xhi, g1 - 1),
                               std::min(raw.yhi, g2 - 1)};
        EXPECT_EQ(kernel_.region_probability(s, raw),
                  kernel_.region_probability(s, clamped))
            << "type2=" << type2 << " g=(" << g1 << ',' << g2 << ") raw "
            << raw;
      }
    }
  }
}

TEST_F(ApproxFixture, ProbabilitiesStayInUnitInterval) {
  for (const bool type2 : {false, true}) {
    const NetGridShape s{33, 27, type2};
    for (int x1 = 0; x1 < 33; x1 += 5) {
      for (int y1 = 0; y1 < 27; y1 += 5) {
        const GridRect r{x1, y1, std::min(x1 + 6, 32), std::min(y1 + 6, 26)};
        const double p = kernel_.region_probability(s, r);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace ficon
