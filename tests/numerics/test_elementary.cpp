// The branch-free elementary kernels against a long double reference, and
// their batch transforms against the scalar ones bit for bit.

#include "numerics/elementary.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "numerics/lt_inversion.hpp"

namespace cosm::numerics {
namespace {

using Complex = std::complex<double>;
using LongComplex = std::complex<long double>;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kSubnormal = 0x1p-1060;

// |got - ref| in units in the last place of ref rounded to double.
double ulps(double got, long double ref) {
  const double r = std::fabs(static_cast<double>(ref));
  const double ulp = std::nextafter(r, kInf) - r;
  return static_cast<double>(std::fabs(got - ref) / ulp);
}

// The arguments the model feeds the kernels: Euler (M = 20 and the
// model's M = 11) and fixed-Talbot (32 nodes) contours for t over seven
// decades, which reach far into both half-planes.
std::vector<Complex> contour_nodes() {
  std::vector<Complex> nodes;
  for (const double t : {1e-7, 1e-4, 1e-3, 0.02, 0.1, 0.5, 2.0, 10.0, 1e3}) {
    for (const int m : {11, 20}) {
      std::vector<Complex> euler(static_cast<std::size_t>(euler_terms(m)));
      euler_fill_nodes(t, m, euler);
      nodes.insert(nodes.end(), euler.begin(), euler.end());
    }
    const double r = 2.0 * 32 / (5.0 * t);
    nodes.emplace_back(r, 0.0);
    for (int k = 1; k < 32; ++k) {
      const double theta = k * std::numbers::pi / 32;
      nodes.emplace_back(r * theta * std::cos(theta) / std::sin(theta),
                         r * theta);
    }
  }
  return nodes;
}

// Real arguments: the contours' components and their scaled copies,
// tiny and huge magnitudes, signed zeros and subnormals.
std::vector<double> real_arguments() {
  std::vector<double> xs = {0.0,     -0.0,       kSubnormal, -kSubnormal,
                            1e-300,  -1e-300,    1e-17,      -1e-17,
                            0.5,     -0.5,       1.0,        -1.0,
                            0.75,    0.4375,     0.6875,     1.5};
  for (const Complex s : contour_nodes()) {
    for (const double scale : {1.0, 1e-3, 4.3e-3, 0.25}) {
      xs.push_back(s.real() * scale);
      xs.push_back(s.imag() * scale);
      xs.push_back(-s.imag() * scale);
    }
  }
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    xs.push_back((2.0 * rng.uniform() - 1.0) *
                 std::exp(40.0 * rng.uniform() - 30.0));
  }
  return xs;
}

TEST(Elementary, ExpWithinOneUlp) {
  std::vector<double> xs = real_arguments();
  xs.insert(xs.end(), {elementary::kExpLimit, -elementary::kExpLimit, 707.9,
                       -707.9, 700.0, -700.0});
  for (const double x : xs) {
    if (!(std::fabs(x) <= elementary::kExpLimit)) continue;
    EXPECT_LE(ulps(elementary::exp(x), std::exp(static_cast<long double>(x))),
              1.0)
        << x;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(elementary::exp(0.0)),
            std::bit_cast<std::uint64_t>(1.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(elementary::exp(-0.0)),
            std::bit_cast<std::uint64_t>(1.0));
}

TEST(Elementary, Log1pWithinOneUlp) {
  std::vector<double> ws = real_arguments();
  ws.insert(ws.end(), {kMax, 0x1p53, 0x1p53 + 2.0, 0x1p54, 0.41421356,
                       -0.29289321, 0.5787649306301271, -1.0 + 0x1p-30,
                       -1.0 + 0x1p-52, 0x1p-1022 - 1.0});
  for (const double w : ws) {
    const double u = 1.0 + w;
    if (!(u >= 0x1p-1022 && u <= kMax)) continue;
    const long double ref = std::log1p(static_cast<long double>(w));
    if (ref == 0.0L) {
      EXPECT_EQ(elementary::log1p(w), 0.0) << w;
      continue;
    }
    EXPECT_LE(ulps(elementary::log1p(w), ref), 1.0) << w;
  }
}

TEST(Elementary, Atan2WithinTwoUlps) {
  // The min/max division rounds before the atan series, so the bound is
  // two ulps rather than one.
  const std::vector<double> xs = real_arguments();
  std::vector<Complex> points;
  for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
    points.emplace_back(xs[i], xs[i + 1]);
  }
  for (const Complex s : contour_nodes()) {
    for (const double rate : {1.0, 233.33, 1e4}) {
      points.emplace_back(1.0 + s.real() / rate, s.imag() / rate);
    }
  }
  for (const double a : {0.0, -0.0, 1.0, -1.0, kSubnormal, -kSubnormal}) {
    for (const double b : {1.0, -1.0, 1e300, -1e300, kSubnormal}) {
      points.emplace_back(a, b);
      points.emplace_back(b, a);
    }
  }
  for (const Complex p : points) {
    const double x = p.real();
    const double y = p.imag();
    if (x == 0.0 && y == 0.0) continue;
    const long double ref = std::atan2(static_cast<long double>(y),
                                       static_cast<long double>(x));
    const double got = elementary::atan2(y, x);
    if (ref == 0.0L) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(std::atan2(y, x)))
          << y << " " << x;
      continue;
    }
    EXPECT_LE(ulps(got, ref), 2.0) << y << " " << x;
  }
}

TEST(Elementary, SinCosWithinOneUlp) {
  std::vector<double> xs = real_arguments();
  xs.insert(xs.end(), {elementary::kSinCosLimit, -elementary::kSinCosLimit,
                       std::numbers::pi / 2, std::numbers::pi, 355.0,
                       103993.0, 411557987.0 / 131002976.0 * 1e5});
  for (const double x : xs) {
    if (!(std::fabs(x) <= elementary::kSinCosLimit)) continue;
    const elementary::SinCos sc = elementary::sincos(x);
    const long double lx = x;
    EXPECT_LE(ulps(sc.sin, std::sin(lx)), 1.0) << x;
    EXPECT_LE(ulps(sc.cos, std::cos(lx)), 1.0) << x;
  }
  for (const double zero : {0.0, -0.0}) {
    const elementary::SinCos sc = elementary::sincos(zero);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sc.sin),
              std::bit_cast<std::uint64_t>(zero));
    EXPECT_EQ(sc.cos, 1.0);
  }
}

// Inputs at and past the kernels' domain edges: non-finite, huge,
// subnormal and signed-zero values, and the Gamma transform's pole at
// s = -l.  Where a transform sends one to libm it must return libm's bits.
const std::vector<Complex>& hostile_points() {
  static const std::vector<Complex> points = {
      {kInf, 0.0},      {-kInf, 1.0},       {0.0, kInf},
      {1.0, -kInf},     {kNaN, 0.0},        {0.0, kNaN},
      {kMax, kMax},     {-kMax, 7.0},       {1e300, -1e300},
      {3.0, 1e30},      {-1e6, 2.0},        {1e6, 3e6},
      {kSubnormal, 0.0}, {-0.0, kSubnormal}, {0.0, -0.0},
      {-0.0, 0.0},      {-233.33, 0.0},     {-233.33, -0.0},
  };
  return points;
}

// Bits of each component, so NaN payloads and signed zeros compare too.
void expect_same_bits(Complex expected, Complex got, Complex at) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.real()),
            std::bit_cast<std::uint64_t>(got.real()))
      << "re at " << at << ": " << expected << " vs " << got;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.imag()),
            std::bit_cast<std::uint64_t>(got.imag()))
      << "im at " << at << ": " << expected << " vs " << got;
}

bool in_gamma_domain(double shape, double rate, Complex s) {
  return elementary::gamma(shape, rate, s.real(), s.imag()).in_domain;
}

TEST(Elementary, GammaTransformMatchesLongDouble) {
  for (const double rate : {1.0, 233.33, 1e4}) {
    for (const double shape : {0.3, 1.0, 2.8, 40.0}) {
      for (const Complex s : contour_nodes()) {
        if (!in_gamma_domain(shape, rate, s)) continue;
        // As in Gamma.LaplaceKernelMatchesPowOracle: rounding s / l alone
        // costs eps * |k log(1 + s/l)| of relative accuracy.
        const LongComplex z(static_cast<long double>(s.real()) / rate,
                            static_cast<long double>(s.imag()) / rate);
        const LongComplex exact =
            std::exp(-static_cast<long double>(shape) * std::log(1.0L + z));
        const double scale =
            std::max(1.0, std::abs(shape * std::log(1.0 + s / rate)));
        const LongComplex got(gamma_laplace(shape, rate, s));
        EXPECT_LE(std::abs(got - exact), 1e-15L * scale * std::abs(exact))
            << "shape " << shape << " rate " << rate << " s " << s;
      }
    }
  }
  // Outside the domain: libm's log1p, atan2, exp, cos and sin.
  for (const Complex s : hostile_points()) {
    if (in_gamma_domain(2.8, 233.33, s)) continue;
    expect_same_bits(gamma_laplace_libm(2.8, 233.33, s),
                     gamma_laplace(2.8, 233.33, s), s);
  }
  EXPECT_FALSE(in_gamma_domain(2.8, 233.33, {kInf, 0.0}));
  EXPECT_FALSE(in_gamma_domain(2.8, 233.33, {-233.33, 0.0}));
  EXPECT_FALSE(in_gamma_domain(2.8, 233.33, {kMax, kMax}));
}

TEST(Elementary, ComplexExpMatchesLongDouble) {
  // Each component is e^re times cos or sin, three roundings of at most
  // an ulp each: within 4 eps of the modulus.
  constexpr long double kBound = 4.0L * 0x1p-52L;
  for (const Complex s : contour_nodes()) {
    for (const double value : {2.5e-3, 1e-3, 0.04, 1.0}) {
      const Complex z = -s * value;
      if (!elementary::complex_exp(z.real(), z.imag()).in_domain) continue;
      const LongComplex exact = std::exp(LongComplex(z));
      const LongComplex got(degenerate_laplace(value, s));
      EXPECT_LE(std::abs(got - exact), kBound * std::abs(exact))
          << "value " << value << " s " << s;
    }
  }
  for (const Complex s : hostile_points()) {
    for (const double value : {0.0, 2.5e-3}) {
      const Complex z = -s * value;
      const bool zero = z.real() == 0.0 && z.imag() == 0.0;
      if (!zero && elementary::complex_exp(z.real(), z.imag()).in_domain) {
        continue;
      }
      // exp(±0 ± i0) = 1 ± i0 is exact, so the kernel matches libm there.
      expect_same_bits(std::exp(z), degenerate_laplace(value, s), s);
    }
  }
}

TEST(Elementary, CompoundPoissonMatchesLibmForm) {
  constexpr long double kBound = 6.0L * 0x1p-52L;
  const Complex base(0.3, -0.4);
  for (const Complex extra : contour_nodes()) {
    for (const double rate : {0.5, 3.0}) {
      const Complex e = extra / (1.0 + std::abs(extra));
      const Complex z = rate * (e - 1.0);
      const LongComplex exact = LongComplex(base) * std::exp(LongComplex(z));
      const LongComplex got(compound_poisson(base, e, rate));
      EXPECT_LE(std::abs(got - exact), kBound * std::abs(exact)) << extra;
    }
  }
  // Outside the domain the factor is libm's exp.
  for (const Complex extra : hostile_points()) {
    const Complex z = 3.0 * (extra - 1.0);
    if (elementary::complex_exp(z.real(), z.imag()).in_domain) continue;
    expect_same_bits(complex_mul(base, std::exp(z)),
                     compound_poisson(base, extra, 3.0), extra);
  }
}

// ------------------------ batch against scalar ----------------------------

// A batch of in-domain contour nodes with one hostile element at `pos`.
std::vector<Complex> batch_with_hostile(std::size_t n, std::size_t pos,
                                        Complex hostile) {
  const std::vector<Complex> nodes = contour_nodes();
  std::vector<Complex> s(n);
  for (std::size_t i = 0; i < n; ++i) s[i] = nodes[(7 * i + 3) % 41] * 0.01;
  if (pos < n) s[pos] = hostile;
  return s;
}

const std::vector<std::size_t>& batch_lengths() {
  static const std::vector<std::size_t> lengths = {1, 2, 3, 23, 24, 47, 130};
  return lengths;
}

// Runs batch(s, out) out of place and in place (out == s) for each
// length, a hostile element at each position, and compares every element
// with scalar(s[i]) bit for bit.
template <class Batch, class Scalar>
void expect_batch_matches_scalar(Batch batch, Scalar scalar) {
  for (const std::size_t n : batch_lengths()) {
    for (const Complex hostile : hostile_points()) {
      for (std::size_t pos = 0; pos <= n; ++pos) {
        const std::vector<Complex> s = batch_with_hostile(n, pos, hostile);
        std::vector<Complex> out(n);
        batch(s.data(), out.data(), n);
        std::vector<Complex> in_place = s;
        batch(in_place.data(), in_place.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const Complex expected = scalar(s[i]);
          expect_same_bits(expected, out[i], s[i]);
          expect_same_bits(expected, in_place[i], s[i]);
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "length " << n << ", hostile element at " << pos;
        }
      }
    }
  }
}

TEST(ElementaryBatch, GammaBitIdenticalToScalar) {
  for (const double shape : {0.3, 2.8, 40.0}) {
    expect_batch_matches_scalar(
        [&](const Complex* s, Complex* out, std::size_t n) {
          gamma_laplace_many(shape, 233.33, s, out, n);
        },
        [&](Complex s) { return gamma_laplace(shape, 233.33, s); });
  }
}

TEST(ElementaryBatch, DegenerateBitIdenticalToScalar) {
  for (const double value : {0.0, 2.5e-3, 1e-3}) {
    expect_batch_matches_scalar(
        [&](const Complex* s, Complex* out, std::size_t n) {
          degenerate_laplace_many(value, s, out, n);
        },
        [&](Complex s) { return degenerate_laplace(value, s); });
  }
}

TEST(ElementaryBatch, CompoundPoissonBitIdenticalToScalar) {
  // The batch updates base in place and overwrites extra; extra carries
  // the hostile element, and base is a second batch of in-domain values.
  const double rate = 3.0;
  for (const std::size_t n : batch_lengths()) {
    for (const Complex hostile : hostile_points()) {
      for (std::size_t pos = 0; pos <= n; ++pos) {
        const std::vector<Complex> extra = batch_with_hostile(n, pos, hostile);
        std::vector<Complex> base(n);
        for (std::size_t i = 0; i < n; ++i) {
          base[i] = Complex(0.9 - 0.01 * i, 0.02 * i);
        }
        std::vector<Complex> got = base;
        std::vector<Complex> scratch = extra;
        compound_poisson_many(rate, got.data(), scratch.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          expect_same_bits(compound_poisson(base[i], extra[i], rate), got[i],
                           extra[i]);
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "length " << n << ", hostile element at " << pos;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cosm::numerics
