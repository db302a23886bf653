#include "numeric/kernel.hpp"

#include <cstdint>
#include <cstring>
#include <numbers>

#include "util/check.hpp"

// The vector bodies use the GCC/Clang vector-extension syntax, as does the
// banded scorer in congestion/irregular_grid.cpp. The scalar exp_lane() is
// the exact per-lane algorithm of exp2v(), so array tails match the lanes.

namespace ficon {
namespace {

// exp() via Cody–Waite argument reduction: x = n*ln2 + r with |r| <= ln2/2,
// e^x = 2^n * e^r, e^r by a degree-13 Taylor polynomial (truncation error
// ~4e-18, well under one ulp at |r| <= 0.347), 2^n by exponent-bit
// reconstruction. Inputs are clamped to +-708 so 2^n never leaves the
// normal range (exp(-708) ~ 3.3e-308); at probability scale the clamped
// tail is indistinguishable from 0.
//
// The polynomial is evaluated in Estrin form rather than Horner: Horner's
// 13 serial multiply-adds are latency-bound on 2-lane vectors, while the
// Estrin tree finishes in ~4 dependent levels after the r^2/r^4/r^8 powers
// and lets out-of-order cores overlap the independent pair terms. The
// scalar exp_lane() uses the identical expression tree so lanes stay
// bit-identical between the vector and tail paths.
constexpr double kExpLo = -708.0;
constexpr double kExpHi = 708.0;
constexpr double kLog2E = 1.4426950408889634074;
// ln2 split: the high part has its low 28 mantissa bits zero, so n*kLn2Hi
// is exact for the |n| <= 1022 this kernel produces.
constexpr double kLn2Hi = 6.93145751953125e-1;
constexpr double kLn2Lo = 1.42860682030941723212e-6;
// Adding 1.5*2^52 forces round-to-nearest-even integer extraction without
// a float->int->float round trip inside the polynomial path. A second
// payoff: t = kShift + n lands in [2^52, 2^53) where doubles have unit
// spacing, so bits(t) == kShiftBits + n as plain integer arithmetic — the
// integer n comes straight out of t's bit pattern with one subtract. That
// matters on baseline SSE2/NEON, which have no packed double->int64
// conversion (__builtin_convertvector would lower to per-lane scalar
// conversions).
constexpr double kShift = 6755399441055744.0;
constexpr std::int64_t kShiftBits = 0x4338000000000000;
constexpr double kTaylor[14] = {
    1.0,
    1.0,
    1.0 / 2,
    1.0 / 6,
    1.0 / 24,
    1.0 / 120,
    1.0 / 720,
    1.0 / 5040,
    1.0 / 40320,
    1.0 / 362880,
    1.0 / 3628800,
    1.0 / 39916800,
    1.0 / 479001600,
    1.0 / 6227020800.0,
};

// The degree-13 e^r Taylor polynomial in Estrin form. Instantiated with
// both double and vd2 below so the scalar lane and the vector path share
// ONE expression tree — GCC/Clang broadcast the scalar coefficients over
// vector operands, and identical expressions mean identical rounding.
template <typename V>
inline V exp_poly(V r) {
  const V r2 = r * r;
  const V r4 = r2 * r2;
  const V r8 = r4 * r4;
  const V q0 = kTaylor[0] + kTaylor[1] * r;
  const V q2 = kTaylor[2] + kTaylor[3] * r;
  const V q4 = kTaylor[4] + kTaylor[5] * r;
  const V q6 = kTaylor[6] + kTaylor[7] * r;
  const V q8 = kTaylor[8] + kTaylor[9] * r;
  const V q10 = kTaylor[10] + kTaylor[11] * r;
  const V q12 = kTaylor[12] + kTaylor[13] * r;
  const V lo = q0 + q2 * r2;              // degrees 0..3
  const V mid = q4 + q6 * r2;             // degrees 4..7
  const V top = q8 + q10 * r2 + q12 * r4;  // degrees 8..13, pre r^8
  return lo + mid * r4 + top * r8;
}

// 16-byte lanes: the baseline vector width on every x86-64 (SSE2) and
// aarch64 (NEON) target, so no -mavx flags or -Wpsabi ABI caveats are
// needed; normal_pdf_batch runs two of these per iteration to keep four
// independent dependency chains in flight.
using vd2 = double __attribute__((vector_size(16)));
using vi2 = std::int64_t __attribute__((vector_size(16)));

inline vd2 bcast(double v) { return vd2{v, v}; }

/// Two exp_lane() evaluations at once — same operations, same order.
inline vd2 exp2v(vd2 x) {
  const vd2 lo = bcast(kExpLo);
  const vd2 hi = bcast(kExpHi);
  x = x < lo ? lo : x;
  x = x > hi ? hi : x;
  const vd2 t = x * bcast(kLog2E) + bcast(kShift);
  const vd2 n = t - bcast(kShift);
  vd2 r = x - n * bcast(kLn2Hi);
  r = r - n * bcast(kLn2Lo);
  const vd2 p = exp_poly(r);
  vi2 e;
  std::memcpy(&e, &t, sizeof e);  // bits(t) = kShiftBits + n, exactly
  e -= kShiftBits;
  const vi2 bits = (e + 1023) << 52;
  vd2 s;
  std::memcpy(&s, &bits, sizeof s);
  return p * s;
}

/// One lane of exp2v(): the identical operation sequence, used for the
/// array tails so results never depend on the array size. Precondition: x
/// is finite; out-of-range x is clamped to [-708, 708].
double exp_lane(double x) noexcept {
  x = x < kExpLo ? kExpLo : x;
  x = x > kExpHi ? kExpHi : x;
  const double t = x * kLog2E + kShift;
  const double n = t - kShift;
  double r = x - n * kLn2Hi;
  r = r - n * kLn2Lo;
  const double p = exp_poly(r);
  std::int64_t e;
  std::memcpy(&e, &t, sizeof e);  // bits(t) = kShiftBits + n, exactly
  e -= kShiftBits;
  const std::int64_t bits = (e + 1023) << 52;
  double s;
  std::memcpy(&s, &bits, sizeof s);
  return p * s;
}

}  // namespace

namespace kernel {

void normal_pdf_batch(std::span<const double> xs, std::span<const double> mus,
                      std::span<const double> inv_sigmas, double scale,
                      std::span<double> out) {
  FICON_ASSERT(xs.size() == mus.size() && xs.size() == inv_sigmas.size() &&
                   xs.size() == out.size(),
               "normal_pdf_batch: span size mismatch");
  const double c = scale * std::numbers::inv_sqrtpi / std::numbers::sqrt2;
  std::size_t i = 0;
  // One fused pass: z, the exp argument, the NaN guard and the final
  // scaling all stay in registers instead of round-tripping through
  // intermediate arrays. Two vd2 chains per iteration keep independent
  // exp trees in flight.
  for (; i + 4 <= xs.size(); i += 4) {
    vd2 x0, x1, m0, m1, s0, s1;
    std::memcpy(&x0, xs.data() + i, sizeof x0);
    std::memcpy(&x1, xs.data() + i + 2, sizeof x1);
    std::memcpy(&m0, mus.data() + i, sizeof m0);
    std::memcpy(&m1, mus.data() + i + 2, sizeof m1);
    std::memcpy(&s0, inv_sigmas.data() + i, sizeof s0);
    std::memcpy(&s1, inv_sigmas.data() + i + 2, sizeof s1);
    const vd2 z0 = (x0 - m0) * s0;
    const vd2 z1 = (x1 - m1) * s1;
    vd2 a0 = bcast(-0.5) * z0 * z0;
    vd2 a1 = bcast(-0.5) * z1 * z1;
    // NaN inv_sigma marks an invalid sample; exp2v needs finite inputs,
    // so park a 0 there — the NaN re-enters via inv_sigma below.
    a0 = a0 == a0 ? a0 : bcast(0.0);
    a1 = a1 == a1 ? a1 : bcast(0.0);
    const vd2 o0 = bcast(c) * s0 * exp2v(a0);
    const vd2 o1 = bcast(c) * s1 * exp2v(a1);
    std::memcpy(out.data() + i, &o0, sizeof o0);
    std::memcpy(out.data() + i + 2, &o1, sizeof o1);
  }
  for (; i + 2 <= xs.size(); i += 2) {
    vd2 x0, m0, s0;
    std::memcpy(&x0, xs.data() + i, sizeof x0);
    std::memcpy(&m0, mus.data() + i, sizeof m0);
    std::memcpy(&s0, inv_sigmas.data() + i, sizeof s0);
    const vd2 z0 = (x0 - m0) * s0;
    vd2 a0 = bcast(-0.5) * z0 * z0;
    a0 = a0 == a0 ? a0 : bcast(0.0);
    const vd2 o0 = bcast(c) * s0 * exp2v(a0);
    std::memcpy(out.data() + i, &o0, sizeof o0);
  }
  for (; i < xs.size(); ++i) {
    const double z = (xs[i] - mus[i]) * inv_sigmas[i];
    const double a = -0.5 * z * z;
    // Same NaN-parking as the vector body; exp_lane is the same per-lane
    // algorithm, so the tail is bit-identical to the vector lanes.
    const double arg = a == a ? a : 0.0;
    out[i] = c * inv_sigmas[i] * exp_lane(arg);
  }
}

}  // namespace kernel
}  // namespace ficon
