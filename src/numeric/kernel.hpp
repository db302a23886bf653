// Batched numeric kernel for the Theorem 1 hot loop (ROADMAP item 3).
//
// The Theorem 1 integrand costs one exp() per Simpson sample, and libm's
// exp() does not vectorize without libmvec. This kernel provides the
// array-oriented primitives the batched probability API is built on:
//
//   * exp_batch()         — e^x over a contiguous array, evaluated two
//                           lanes at a time with portable GCC/Clang vector
//                           extensions,
//   * normal_pdf_batch()  — the normal density over an array of
//                           (x, mu, 1/sigma) triples,
//   * normal_cdf_batch()  — batched CDF counterpart (erfc-based; kept
//                           scalar inside, provided so callers can stay on
//                           the array API throughout).
//
// Equivalence contract: the vector body and the scalar tail use the SAME
// exp algorithm (Cody–Waite reduction + degree-13 Taylor + exponent
// reconstruction), so element i of a batch does not depend on the batch
// size. Relative error vs libm exp() is ~1 ulp; the probability-level
// bound against the scalar libm reference (ApproxRegionProbability, which
// keeps calling numeric/normal.hpp) is asserted in prob_property_test.
#pragma once

#include <cstdint>
#include <span>

namespace ficon {

namespace kernel {

/// Scalar lane of the kernel exp: identical operation sequence to one lane
/// of the vector path, used for batch tails.
/// Precondition: x is finite (not NaN/inf); out-of-range x is clamped to
/// [-708, 708] (exp(-708) ~ 3.3e-308 is still a normal double).
double exp_lane(double x) noexcept;

/// out[i] = e^xs[i]. Vectorized in chunks of 4 lanes; the tail uses
/// exp_lane(), so results never depend on the batch size. Spans must have
/// equal size.
void exp_batch(std::span<const double> xs, std::span<double> out);

/// out[i] = scale * inv_sigmas[i] * std_normal_pdf((xs[i]-mus[i]) *
/// inv_sigmas[i]). NaN entries in inv_sigmas propagate to out — callers
/// use that to mark invalid samples through the batch. Equal sizes.
void normal_pdf_batch(std::span<const double> xs, std::span<const double> mus,
                      std::span<const double> inv_sigmas, double scale,
                      std::span<double> out);

/// out[i] = Phi((xs[i]-mu) * inv_sigma), via erfc (numerically stable in
/// both tails). erfc has no portable vector form, so this loop is scalar
/// inside; it exists so CDF callers can stay on the array API.
void normal_cdf_batch(std::span<const double> xs, double mu, double inv_sigma,
                      std::span<double> out);

}  // namespace kernel
}  // namespace ficon
