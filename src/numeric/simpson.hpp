// Composite Simpson's-rule integration.
//
// Theorem 1 reduces an IR-grid's crossing probability to two definite
// integrals of normal-like integrands; the paper evaluates them "by
// Simpson's rule of integration in constant time". A fixed, even number of
// panels keeps the per-IR-grid cost independent of the grid span, which is
// exactly the complexity claim of section 4.4.
#pragma once

#include <optional>

#include "util/check.hpp"

namespace ficon {

/// Integrate f over [a, b] with composite Simpson's rule using `panels`
/// sub-intervals (must be even and >= 2). The integrand returns
/// std::optional<double>; the integral is nullopt as soon as any sample is
/// (Theorem 1's invalid-sample rule). Returns 0 for a >= b.
template <typename F>
std::optional<double> simpson(F&& f, double a, double b, int panels) {
  FICON_REQUIRE(panels >= 2 && panels % 2 == 0,
                "Simpson's rule needs an even panel count >= 2");
  if (!(a < b)) return 0.0;
  const double h = (b - a) / panels;
  double sum = 0.0;
  for (int i = 0; i <= panels; ++i) {
    const double x = a + h * i;
    const auto v = f(x);
    if (!v) return std::nullopt;
    const double w = (i == 0 || i == panels) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    sum += w * *v;
  }
  return sum * h / 3.0;
}

}  // namespace ficon
