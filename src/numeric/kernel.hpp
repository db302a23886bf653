// Vector numeric kernel for the Theorem 1 hot loop.
//
// The Theorem 1 integrand costs one exp() per Simpson sample, and libm's
// exp() does not vectorize without libmvec. normal_pdf_batch() evaluates
// the normal density over an array of (x, mu, 1/sigma) triples with its
// own exp, two lanes at a time with portable GCC/Clang vector extensions;
// ProbKernel (congestion/prob_kernel.hpp) runs every Simpson sample
// through it.
//
// Equivalence contract: the vector body and the scalar tail use the SAME
// exp algorithm (Cody–Waite reduction + degree-13 Taylor + exponent
// reconstruction), so element i does not depend on the array size.
// Relative error vs libm exp() is ~1 ulp; the probability-level bound
// against the scalar libm reference (ApproxRegionProbability, which keeps
// calling numeric/normal.hpp) is asserted in prob_property_test.
#pragma once

#include <span>

namespace ficon {

namespace kernel {

/// out[i] = scale * inv_sigmas[i] * std_normal_pdf((xs[i]-mus[i]) *
/// inv_sigmas[i]). NaN entries in inv_sigmas propagate to out — callers
/// use that to mark invalid samples through the array. Equal sizes.
void normal_pdf_batch(std::span<const double> xs, std::span<const double> mus,
                      std::span<const double> inv_sigmas, double scale,
                      std::span<double> out);

}  // namespace kernel
}  // namespace ficon
