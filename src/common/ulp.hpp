#pragma once

// ULP (units-in-the-last-place) distance between doubles, for comparing
// nearly-equal floating-point results with a resolution-independent metric.
// Used by perf_numerics_tape's divergence report and by numerics tests
// that previously rolled ad-hoc epsilon checks.
//
// The mapping: every finite double is sent to a signed integer such that
// consecutive representable doubles map to consecutive integers, with the
// ordering preserved across zero (-0.0 and +0.0 both map to 0).  The ULP
// distance is the absolute difference of those integers; it equals the
// number of representable doubles strictly between the two values, plus one
// when they differ.

#include <bit>
#include <complex>
#include <cstdint>
#include <limits>

namespace cosm::common {

// Monotone signed-integer image of a double.  NaNs have no meaningful image;
// callers should test for them first (ulp_distance below handles NaNs).
inline std::int64_t ulp_index(double x) {
  const std::int64_t bits = std::bit_cast<std::int64_t>(x);
  // Negative doubles have the sign bit set and grow *downward* in bit space;
  // flip them below zero so the mapping is monotone.  Both zeros map to 0.
  return bits >= 0 ? bits : std::numeric_limits<std::int64_t>::min() - bits;
}

// ULP distance between two doubles.
//  - equal values (including -0.0 vs +0.0) -> 0
//  - adjacent representable doubles -> 1
//  - any NaN involved -> INT64_MAX (never "close")
//  - infinities are one ULP beyond the largest finite double, so a finite
//    value compared against an infinity yields a large-but-defined distance
inline std::int64_t ulp_distance(double a, double b) {
  if (a != a || b != b) {
    return std::numeric_limits<std::int64_t>::max();
  }
  const std::int64_t ia = ulp_index(a);
  const std::int64_t ib = ulp_index(b);
  // The images span roughly +/-2^63 - 2^52; the difference of a positive and
  // a negative image can overflow int64 for wildly different magnitudes.
  // Saturate instead of wrapping.
  if ((ia >= 0) != (ib >= 0)) {
    const std::uint64_t mag =
        static_cast<std::uint64_t>(ia >= 0 ? ia : -ia) + static_cast<std::uint64_t>(ib >= 0 ? ib : -ib);
    if (mag > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      return std::numeric_limits<std::int64_t>::max();
    }
    return static_cast<std::int64_t>(mag);
  }
  return ia >= ib ? ia - ib : ib - ia;
}

// Componentwise ULP distance for complex values: the max over parts.
inline std::int64_t ulp_distance(const std::complex<double>& a, const std::complex<double>& b) {
  const std::int64_t dr = ulp_distance(a.real(), b.real());
  const std::int64_t di = ulp_distance(a.imag(), b.imag());
  return dr > di ? dr : di;
}

// True when a and b are within `max_ulps` ULPs of each other.
inline bool ulp_close(double a, double b, std::int64_t max_ulps) { return ulp_distance(a, b) <= max_ulps; }

inline bool ulp_close(const std::complex<double>& a, const std::complex<double>& b, std::int64_t max_ulps) {
  return ulp_distance(a, b) <= max_ulps;
}

}  // namespace cosm::common
