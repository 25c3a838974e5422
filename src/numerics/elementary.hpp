// Branch-free elementary kernels and the transforms built from them.
//
// Three kinds of node carry most of a device model's transform cost: the
// Gamma leaves (log1p, atan2, exp, sincos per contour node), the
// Degenerate leaves (a complex exp) and the union operation's
// compound-Poisson node (another complex exp).  libm evaluates those one
// element at a time.  The kernels here are straight-line code — every
// branch is a select — so a loop over a batch of contour nodes
// vectorizes; elementary.cpp builds each batch loop for x86-64-v3 (four
// lanes) and for the baseline ISA (two) and the loader picks one by CPU.
// The same inline function is the scalar path of Gamma::laplace,
// Degenerate::laplace and CompoundPoissonConvolution::laplace.  Its
// arithmetic is IEEE + - * / and bit operations, uncontracted, so an
// element gets the same bits at every vector width: the tape and the
// scalar tree walk run the same arithmetic per element, and the tape
// stays bit-identical to the tree walk whichever clone runs.
//
// The kernels follow fdlibm (Sun Microsystems, 1993): exp by a rational
// remez fit on |r| <= ln2/2, log1p by the atanh series in s = f/(2+f),
// atan2 by its four-interval reduction, sin and cos by a two-part
// Cody–Waite reduction modulo pi/2 and the k_sin / k_cos polynomials.
// tests/numerics/test_elementary.cpp states and checks their ulp bounds
// against a long double reference.
//
// Domains.  Each transform tests its input against the range where the
// kernels are accurate and finite (no overflow, underflow, subnormal
// result, huge reduction argument, zero or non-finite operand) and sends
// every element outside it to libm: the scalar path at once, the batch
// path (elementary.cpp) in a second, scalar pass over just those
// elements.  The domain test reads the element's input and quantities
// computed from it, never an output.  For an out-of-domain element the
// first pass stores what libm needs (the input itself, or the exponent
// of a complex exp), so an in-place batch (destination = source) still
// has it in the second pass.
#pragma once

#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace cosm::numerics {

namespace elementary {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
inline double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

// x, or the default quiet NaN when x is a NaN.  Where two NaNs meet in a
// sum, the result carries one of them, and which one follows the operand
// order the compiler picked, so a NaN result has no fixed bits unless it
// is replaced.
inline double canonical_nan(double x) {
  return x != x ? std::numeric_limits<double>::quiet_NaN() : x;
}

// x + 0x1.8p52 rounds x to an integer, which sits in the low mantissa
// bits; subtracting it again gives that integer as a double.
inline constexpr double kRoundShift = 0x1.8p52;

// Exp: accurate and normal for |x| <= kExpLimit.
inline constexpr double kExpLimit = 708.0;

inline double exp(double x) {
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 32 bits
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kP1 = 1.66666666666666019037e-01;
  constexpr double kP2 = -2.77777777770155933842e-03;
  constexpr double kP3 = 6.61375632143793436117e-05;
  constexpr double kP4 = -1.65339022054652515390e-06;
  constexpr double kP5 = 4.13813679705723846039e-08;
  const double kd = x * kInvLn2 + kRoundShift;
  const double k = kd - kRoundShift;
  // k * kLn2Hi is exact for |k| < 2^21 and the subtraction cancels
  // exactly, so r = hi - lo carries x - k ln2 to ~2^-80.
  const double hi = x - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // y * 2^k by adding k to the exponent field; y * 2^k is normal on the
  // domain, so the field neither under- nor overflows.
  return from_bits(bits(y) + ((bits(kd) - bits(kRoundShift)) << 52));
}

// log1p(w): accurate for 1 + w normal and finite.
inline double log1p(double w) {
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kLp1 = 6.666666666666735130e-01;
  constexpr double kLp2 = 3.999999999940941908e-01;
  constexpr double kLp3 = 2.857142874366239149e-01;
  constexpr double kLp4 = 2.222219843214978396e-01;
  constexpr double kLp5 = 1.818357216161805012e-01;
  constexpr double kLp6 = 1.531383769920937332e-01;
  constexpr double kLp7 = 1.479819860511658591e-01;
  // 1 + w = 2^k m with m in [sqrt(2)/2, sqrt(2)): offsetting the bits by
  // 1 - sqrt(2)/2 in the exponent field moves the binade boundary there.
  constexpr std::uint64_t kOffset = 0x3ff0000000000000 - 0x3fe6a09e00000000;
  const double u = 1.0 + w;
  const std::uint64_t ix = bits(u) + kOffset;
  const double k = from_bits((ix >> 52) | bits(0x1p52)) - (0x1p52 + 1023.0);
  const double m = from_bits((ix & 0x000fffffffffffff) + 0x3fe6a09e00000000);
  // At k = 0, f = w exactly; otherwise f = m - 1 (exact) and c corrects
  // log(u) for the rounding of u = 1 + w.  u - 1 is exact for
  // 1 <= u < 2^53 and for u < 1 where 1 + w is exact, so w - (u - 1) is
  // that rounding error exactly.
  const double f = k == 0.0 ? w : m - 1.0;
  const double c = (k == 0.0 ? 0.0 : w - (u - 1.0)) / u;
  const double hfsq = 0.5 * f * f;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double r =
      z * (kLp1 +
           z * (kLp2 +
                z * (kLp3 + z * (kLp4 + z * (kLp5 + z * (kLp6 + z * kLp7))))));
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + (k * kLn2Lo + c))) - f);
}

// atan2(y, x): accurate for finite x, y, not both zero.
inline double atan2(double y, double x) {
  constexpr double kAtanHalfHi = 4.63647609000806093515e-01;
  constexpr double kAtanHalfLo = 2.26987774529616870924e-17;
  constexpr double kPiOver4Hi = 7.85398163397448278999e-01;
  constexpr double kPiOver4Lo = 3.06161699786838301793e-17;
  constexpr double kAtanTwoHi = 1.1071487177940904;
  constexpr double kAtanTwoLo = 9.40447137356638e-17;
  constexpr double kPiOver2Hi = 1.57079632679489655800e+00;
  constexpr double kPiOver2Lo = 6.12323399573676603587e-17;
  constexpr double kPiHi = 3.1415926535897931160e+00;
  constexpr double kPiLo = 1.2246467991473531772e-16;
  constexpr double kT0 = 3.33333333333329318027e-01;
  constexpr double kT1 = -1.99999999998764832476e-01;
  constexpr double kT2 = 1.42857142725034663711e-01;
  constexpr double kT3 = -1.11111104054623557880e-01;
  constexpr double kT4 = 9.09088713343650656196e-02;
  constexpr double kT5 = -7.69187620504482999495e-02;
  constexpr double kT6 = 6.66107313738753120669e-02;
  constexpr double kT7 = -5.83357013379057348645e-02;
  constexpr double kT8 = 4.97687799461593236017e-02;
  constexpr double kT9 = -3.65315727442169155270e-02;
  constexpr double kT10 = 1.62858201153657823623e-02;
  const double ax = x < 0.0 ? -x : x;
  const double ay = y < 0.0 ? -y : y;
  // a = min / max in [0, 1]; with swap, the angle is pi/2 - atan(a).
  const bool swap = ay > ax;
  const double a = (swap ? ax : ay) / (swap ? ay : ax);
  // atan(a) = H + atan(t), t = (A a - B) / (C a + D) on [0, 7/16),
  // [7/16, 11/16) and [11/16, 1]: t = a, (2a - 1) / (2 + a),
  // (a - 1) / (a + 1).  The numerators are exact.  Every select below is
  // two-way, with both operands computed, so the loops over these
  // kernels if-convert.
  const bool mid = a >= 0.4375;
  const bool high = a >= 0.6875;
  const double two_if_mid = mid & !high ? 2.0 : 1.0;
  const double one_if_mid = mid ? 1.0 : 0.0;
  const double t =
      (a * two_if_mid - one_if_mid) / (a * one_if_mid + two_if_mid);
  // H, or pi/2 - H with swap (atan(a) <-> pi/2 - atan(a)), as hi + lo.
  const double hi_low = mid ? kAtanHalfHi : 0.0;
  const double lo_low = mid ? kAtanHalfLo : 0.0;
  const double hi_swap = mid ? kAtanTwoHi : kPiOver2Hi;
  const double lo_swap = mid ? kAtanTwoLo : kPiOver2Lo;
  const double hi = high ? kPiOver4Hi : swap ? hi_swap : hi_low;
  const double lo = high ? kPiOver4Lo : swap ? lo_swap : lo_low;
  const double z = t * t;
  const double w = z * z;
  const double s1 =
      z * (kT0 + w * (kT2 + w * (kT4 + w * (kT6 + w * (kT8 + w * kT10)))));
  const double s2 = w * (kT1 + w * (kT3 + w * (kT5 + w * (kT7 + w * kT9))));
  const double tt = swap ? -t : t;
  const double angle = hi - ((tt * (s1 + s2) - lo) - tt);
  const double folded = x < 0.0 ? kPiHi - (angle - kPiLo) : angle;
  constexpr std::uint64_t kSign = 0x8000000000000000;
  return from_bits(bits(folded) | (bits(y) & kSign));
}

// sin and cos of x: accurate for |x| <= kSinCosLimit.
inline constexpr double kSinCosLimit = 0x1p19;

struct SinCos {
  double sin;
  double cos;
};

inline SinCos sincos(double x) {
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPio2_1 = 1.57079632673412561417e+00;  // 33 bits
  constexpr double kPio2_2 = 6.07710050630396597660e-11;  // 33 bits
  constexpr double kPio2_2t = 2.02226624879595063154e-21;
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  // x = n pi/2 + (y0 + y1), |y0 + y1| <~ pi/4.  With |n| < 2^20 both
  // n kPio2_1 and n kPio2_2 are exact and x - n kPio2_1 cancels exactly;
  // the second step carries the rounding of its subtraction into y1.
  const double kd = x * kTwoOverPi + kRoundShift;
  const double n = kd - kRoundShift;
  const double r1 = x - n * kPio2_1;
  const double p2 = n * kPio2_2;
  const double r2 = r1 - p2;
  const double tail = n * kPio2_2t - ((r1 - r2) - p2);
  const double y0 = r2 - tail;
  const double y1 = (r2 - y0) - tail;
  // k_sin / k_cos on [-pi/4, pi/4] with the tail y1.
  const double z = y0 * y0;
  const double w = z * z;
  const double v = z * y0;
  const double rs = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const double sin_r = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * kS1);
  const double rc = z * (kC1 + z * (kC2 + z * kC3)) +
                    w * w * (kC4 + z * (kC5 + z * kC6));
  const double hz = 0.5 * z;
  const double one_minus_hz = 1.0 - hz;
  const double cos_r =
      one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * rc - y0 * y1));
  // The quadrant n mod 4 (the low bits of kd): odd swaps sin and cos;
  // sin changes sign in quadrants 2 and 3, cos in 1 and 2.
  const std::uint64_t q = bits(kd);
  const std::uint64_t swap = 0 - (q & 1);
  const std::uint64_t sb = bits(sin_r);
  const std::uint64_t cb = bits(cos_r);
  return {from_bits(((sb & ~swap) | (cb & swap)) ^ ((q & 2) << 62)),
          from_bits(((cb & ~swap) | (sb & swap)) ^ (((q + 1) & 2) << 62))};
}

// A transform value from the kernels and whether the input was in their
// domain; outside it the value is meaningless.
struct Value {
  double re;
  double im;
  bool in_domain;
};

// exp(re + i im) = e^re (cos im + i sin im), as glibc's cexp forms it.
inline Value complex_exp(double re, double im) {
  const double modulus = exp(re);
  const SinCos sc = sincos(im);
  const bool in_domain = (re >= -kExpLimit) & (re <= kExpLimit) &
                         (im >= -kSinCosLimit) & (im <= kSinCosLimit);
  return {modulus * sc.cos, modulus * sc.sin, in_domain};
}

// (l / (l + s))^k = exp(-k/2 log1p(2u + u^2 + v^2)) cis(-k atan2(v, 1 + u))
// with u + iv = s / l: exp(-k log(1 + s/l)) on the principal branch, the
// modulus and argument of 1 + s/l taken directly.
inline Value gamma(double shape, double rate, double re, double im) {
  const double u = re / rate;
  const double v = im / rate;
  const double w = 2.0 * u + u * u + v * v;
  const double one_plus_w = 1.0 + w;
  const double log_modulus = -0.5 * shape * log1p(w);
  const double phase = -shape * atan2(v, 1.0 + u);
  const double modulus = exp(log_modulus);
  const SinCos sc = sincos(phase);
  // 1 + w = |1 + s/l|^2 normal and finite also makes (v, 1 + u) finite and
  // not both zero, atan2's domain.
  const bool in_domain =
      (one_plus_w >= 0x1p-1022) & (one_plus_w <= 0x1.fffffffffffffp1023) &
      (log_modulus >= -kExpLimit) & (log_modulus <= kExpLimit) &
      (phase >= -kSinCosLimit) & (phase <= kSinCosLimit);
  return {modulus * sc.cos, modulus * sc.sin, in_domain};
}

}  // namespace elementary

// x * y as (ac - bd, ad + bc), without std::complex's NaN recovery, and
// with ac - bd spelled ac + (-b)d, the sign flipped on the bits.  GCC 12
// pairs the lanes ac - bd and ad + bc into one fused vfmaddsub wherever
// the ISA has FMA, whatever -ffp-contract says, and does so in one
// context and not another, so the tape and the tree walk would round
// differently.  Flipping the sign bit leaves two additions and no fused
// form; the value is the same.
inline std::complex<double> complex_mul(std::complex<double> x,
                                        std::complex<double> y) {
  constexpr std::uint64_t kSign = 0x8000000000000000;
  const double minus_im =
      elementary::from_bits(elementary::bits(x.imag()) ^ kSign);
  return {x.real() * y.real() + minus_im * y.imag(),
          x.real() * y.imag() + x.imag() * y.real()};
}

// x * y as std::complex's operator* computes it, infinities recovered
// as C99 Annex G asks.  GCC expands operator* inline to
// (ac - bd, ad + bc) and calls libgcc's __muldc3 only when both parts come
// out NaN; complex_mul gives the same parts, and an element whose parts
// are both NaN is redone by complex_mul_libgcc, which keeps that call out
// of line (elementary.cpp).  The tape's products and the tree walk's
// Convolution::laplace and MM1KSojourn::laplace share these two forms.
std::complex<double> complex_mul_libgcc(std::complex<double> x,
                                        std::complex<double> y);

inline std::complex<double> complex_mul_std(std::complex<double> x,
                                            std::complex<double> y) {
  const std::complex<double> product = complex_mul(x, y);
  return std::isnan(product.real()) && std::isnan(product.imag())
             ? complex_mul_libgcc(x, y)
             : product;
}

// x^n for n >= 0 as std::pow(x, n) computes it: libstdc++'s
// square-and-multiply (__complex_pow_unsigned), in its order, with
// complex_mul_std for each product.
inline std::complex<double> complex_pow(std::complex<double> x,
                                        unsigned n) {
  std::complex<double> y = n % 2 ? x : std::complex<double>(1.0);
  while (n >>= 1) {
    x = complex_mul_std(x, x);
    if (n % 2) y = complex_mul_std(y, x);
  }
  return y;
}

// --------------------------- the transforms -------------------------------
//
// Each scalar function is its batch function at one element: the batch
// form (elementary.cpp) runs the same kernel per element and the same
// libm fallback outside the domain, so the two agree bit for bit.  Batch
// outputs may alias their inputs element for element (out == s).

// The Gamma transform (l / (l + s))^k, see
// elementary::gamma.  libm's log1p, atan2, exp, cos and sin of the same
// expression outside the kernels' domain.
inline std::complex<double> gamma_laplace_libm(double shape, double rate,
                                               std::complex<double> s) {
  const double u = s.real() / rate;
  const double v = s.imag() / rate;
  const double modulus =
      std::exp(-0.5 * shape * std::log1p(2.0 * u + u * u + v * v));
  const double phase = -shape * std::atan2(v, 1.0 + u);
  return {modulus * std::cos(phase), modulus * std::sin(phase)};
}

inline std::complex<double> gamma_laplace(double shape, double rate,
                                          std::complex<double> s) {
  const elementary::Value r =
      elementary::gamma(shape, rate, s.real(), s.imag());
  return r.in_domain ? std::complex<double>(r.re, r.im)
                     : gamma_laplace_libm(shape, rate, s);
}

void gamma_laplace_many(double shape, double rate,
                        const std::complex<double>* s,
                        std::complex<double>* out, std::size_t n);

// exp(z): the kernels' e^re (cos im + i sin im), libm's outside them.
inline std::complex<double> complex_exp(std::complex<double> z) {
  const elementary::Value r = elementary::complex_exp(z.real(), z.imag());
  return r.in_domain ? std::complex<double>(r.re, r.im) : std::exp(z);
}

// The point mass at `value`: exp(-s value).
inline std::complex<double> degenerate_laplace(double value,
                                               std::complex<double> s) {
  return complex_exp(-s * value);
}

void degenerate_laplace_many(double value, const std::complex<double>* s,
                             std::complex<double>* out, std::size_t n);

// The union operation's compound-Poisson node: base exp(rate (extra - 1)),
// a NaN part as elementary::canonical_nan, so that a NaN base (a hostile
// s) gives the same bits here and in the batch.
inline std::complex<double> compound_poisson(std::complex<double> base,
                                             std::complex<double> extra,
                                             double rate) {
  const std::complex<double> product =
      complex_mul(base, complex_exp(rate * (extra - 1.0)));
  return {elementary::canonical_nan(product.real()),
          elementary::canonical_nan(product.imag())};
}

// base[i] = compound_poisson(base[i], extra[i], rate).  extra is scratch:
// it is overwritten with the exponential factors.
void compound_poisson_many(double rate, std::complex<double>* base,
                           std::complex<double>* extra, std::size_t n);

}  // namespace cosm::numerics
