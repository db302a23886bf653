// Tests for the numeric kernel: factorial/binomial tables, Simpson
// integration, and the normal-distribution helpers.
#include <cmath>
#include <numbers>
#include <optional>

#include <gtest/gtest.h>

#include "numeric/factorial.hpp"
#include "numeric/normal.hpp"
#include "numeric/simpson.hpp"

namespace ficon {
namespace {

TEST(LogFactorial, SmallValuesExact) {
  LogFactorialTable table;
  EXPECT_DOUBLE_EQ(table.log_factorial(0), 0.0);
  EXPECT_DOUBLE_EQ(table.log_factorial(1), 0.0);
  EXPECT_NEAR(table.log_factorial(5), std::log(120.0), 1e-12);
  EXPECT_NEAR(table.log_factorial(10), std::log(3628800.0), 1e-12);
}

TEST(LogFactorial, GrowsOnDemand) {
  LogFactorialTable table;
  const std::size_t initial = table.cached_size();
  table.log_factorial(100);
  EXPECT_GE(table.cached_size(), 101u);
  EXPECT_GE(table.cached_size(), initial);
  // Stirling sanity: ln(100!) ~ 363.739.
  EXPECT_NEAR(table.log_factorial(100), 363.73937555556347, 1e-9);
}

TEST(LogFactorial, RejectsNegative) {
  LogFactorialTable table;
  EXPECT_THROW(table.log_factorial(-1), std::invalid_argument);
  EXPECT_THROW(table.log_choose(3, 4), std::invalid_argument);
  EXPECT_THROW(table.log_choose(3, -1), std::invalid_argument);
}

TEST(LogChoose, MatchesExactBinomials) {
  LogFactorialTable table;
  for (int n = 0; n <= 40; ++n) {
    for (int k = 0; k <= n; ++k) {
      const double expected = static_cast<double>(choose_exact(n, k));
      EXPECT_NEAR(std::exp(table.log_choose(n, k)), expected,
                  expected * 1e-10)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(LogChoose, PascalRecurrence) {
  LogFactorialTable table;
  for (int n = 2; n <= 200; n += 7) {
    for (int k = 1; k < n; k += 3) {
      const double lhs = std::exp(table.log_choose(n, k));
      const double rhs = std::exp(table.log_choose(n - 1, k)) +
                         std::exp(table.log_choose(n - 1, k - 1));
      EXPECT_NEAR(lhs, rhs, rhs * 1e-9) << "n=" << n << " k=" << k;
    }
  }
}

TEST(LogPaths, CountsLatticePaths) {
  LogFactorialTable table;
  // 2x2 step grid: C(4,2) = 6 monotone paths.
  EXPECT_NEAR(std::exp(table.log_paths(2, 2)), 6.0, 1e-9);
  // Degenerate directions: a single path.
  EXPECT_NEAR(std::exp(table.log_paths(0, 5)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(table.log_paths(7, 0)), 1.0, 1e-12);
}

TEST(ChooseExact, KnownValues) {
  EXPECT_EQ(choose_exact(0, 0), 1u);
  EXPECT_EQ(choose_exact(10, 5), 252u);
  EXPECT_EQ(choose_exact(52, 5), 2598960u);
  EXPECT_EQ(choose_exact(62, 31), 465428353255261088ull);
}

TEST(ChooseExact, SymmetricInK) {
  for (int n = 0; n <= 30; ++n) {
    for (int k = 0; k <= n; ++k) {
      EXPECT_EQ(choose_exact(n, k), choose_exact(n, n - k));
    }
  }
}

TEST(ChooseDouble, TracksExact) {
  for (int n = 0; n <= 50; ++n) {
    for (int k = 0; k <= n; k += 2) {
      const double expected = static_cast<double>(choose_exact(n, k));
      EXPECT_NEAR(choose_double(n, k), expected, expected * 1e-10);
    }
  }
}

TEST(Simpson, ExactForCubics) {
  // Simpson's rule integrates polynomials of degree <= 3 exactly.
  const auto cubic = [](double x) -> std::optional<double> {
    return 2.0 * x * x * x - x * x + 3.0;
  };
  const double exact = 2.0 * 16.0 / 4.0 - 8.0 / 3.0 + 3.0 * 2.0;  // over [0,2]
  EXPECT_NEAR(simpson(cubic, 0.0, 2.0, 2).value(), exact, 1e-12);
  EXPECT_NEAR(simpson(cubic, 0.0, 2.0, 64).value(), exact, 1e-12);
}

TEST(Simpson, ConvergesOnGaussian) {
  const auto gauss = [](double x) -> std::optional<double> {
    return std_normal_pdf(x);
  };
  EXPECT_NEAR(simpson(gauss, -6.0, 6.0, 64).value(), 1.0, 1e-8);
}

TEST(Simpson, EmptyAndInvertedIntervals) {
  const auto f = [](double) -> std::optional<double> { return 1.0; };
  EXPECT_EQ(simpson(f, 1.0, 1.0, 4), 0.0);
  EXPECT_EQ(simpson(f, 2.0, 1.0, 4), 0.0);
}

TEST(Simpson, RejectsOddPanels) {
  const auto f = [](double) -> std::optional<double> { return 1.0; };
  EXPECT_THROW(simpson(f, 0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(simpson(f, 0.0, 1.0, 0), std::invalid_argument);
}

TEST(Simpson, AnyInvalidSampleMakesTheIntegralInvalid) {
  // Theorem 1's rule: one invalid sample (here the right end point, the
  // last one visited) voids the integral instead of being skipped.
  const auto f = [](double x) -> std::optional<double> {
    if (x >= 1.0) return std::nullopt;
    return 1.0;
  };
  EXPECT_FALSE(simpson(f, 0.0, 1.0, 4).has_value());
  EXPECT_EQ(simpson(f, 0.0, 0.5, 4), 0.5);
}

TEST(Normal, PdfPeakAndSymmetry) {
  EXPECT_NEAR(std_normal_pdf(0.0), 1.0 / std::sqrt(2.0 * std::numbers::pi),
              1e-15);
  EXPECT_DOUBLE_EQ(std_normal_pdf(1.5), std_normal_pdf(-1.5));
  EXPECT_NEAR(normal_pdf(3.0, 3.0, 2.0), std_normal_pdf(0.0) / 2.0, 1e-15);
}

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(std_normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(std_normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(std_normal_cdf(-1.959963984540054), 0.025, 1e-9);
  EXPECT_NEAR(normal_cdf(5.0, 3.0, 2.0), std_normal_cdf(1.0), 1e-12);
}

TEST(Normal, PdfIsDerivativeOfCdf) {
  for (double z = -3.0; z <= 3.0; z += 0.25) {
    const double h = 1e-6;
    const double numeric =
        (std_normal_cdf(z + h) - std_normal_cdf(z - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, std_normal_pdf(z), 1e-6) << "z=" << z;
  }
}

}  // namespace
}  // namespace ficon
