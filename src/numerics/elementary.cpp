#include "numerics/elementary.hpp"

#include <algorithm>

namespace cosm::numerics {

namespace {

// Runs step(i) for i in [0, n) in chunks: step writes element i and
// returns whether it was in the kernels' domain, and must leave an
// out-of-domain element's input in place; fallback(i) then redoes those
// elements one by one.  A step captures by value: a captured reference
// to a double may alias the doubles it stores, which keeps the loop
// scalar.
template <class Step, class Fallback>
void map_with_fallback(std::size_t n, Step step, Fallback fallback) {
  constexpr std::size_t kChunk = 64;
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t len = std::min(kChunk, n - begin);
    // Flags as doubles: a 64-bit integer store beside the steps' strided
    // double loads leaves GCC 12 without a vector type for the loop.
    double outside[kChunk];
    for (std::size_t i = 0; i < len; ++i) {
      outside[i] = step(begin + i) ? 0.0 : 1.0;
    }
    for (std::size_t i = 0; i < len; ++i) {
      if (outside[i] != 0.0) fallback(begin + i);
    }
  }
}

// A complex array as interleaved (re, im) doubles, which [complex.numbers]
// guarantees; the vectorizer loads and stores doubles, not complex values.
const double* parts(const std::complex<double>* z) {
  return reinterpret_cast<const double*>(z);
}
double* parts(std::complex<double>* z) {
  return reinterpret_cast<double*>(z);
}

}  // namespace

void gamma_laplace_many(double shape, double rate,
                        const std::complex<double>* s,
                        std::complex<double>* out, std::size_t n) {
  const double* in = parts(s);
  double* res = parts(out);
  map_with_fallback(
      n,
      [=](std::size_t i) {
        const double re = in[2 * i];
        const double im = in[2 * i + 1];
        const elementary::Value r = elementary::gamma(shape, rate, re, im);
        res[2 * i] = r.in_domain ? r.re : re;
        res[2 * i + 1] = r.in_domain ? r.im : im;
        return r.in_domain;
      },
      [&](std::size_t i) { out[i] = gamma_laplace_libm(shape, rate, out[i]); });
}

void degenerate_laplace_many(double value, const std::complex<double>* s,
                             std::complex<double>* out, std::size_t n) {
  if (value == 0.0) {
    // The atom at zero (every cache hit/miss mixture has one): on the
    // domain the kernel gives exp(±0 ± i0) = 1 ± i0, so only the sign of
    // the imaginary zero needs carrying.
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<double> z = -s[i] * value;
      out[i] = z.real() == 0.0 && z.imag() == 0.0
                   ? std::complex<double>(1.0, z.imag())
                   : std::exp(z);
    }
    return;
  }
  const double* in = parts(s);
  double* res = parts(out);
  map_with_fallback(
      n,
      [=](std::size_t i) {
        const double re = -in[2 * i] * value;
        const double im = -in[2 * i + 1] * value;
        const elementary::Value r = elementary::complex_exp(re, im);
        res[2 * i] = r.in_domain ? r.re : re;
        res[2 * i + 1] = r.in_domain ? r.im : im;
        return r.in_domain;
      },
      [=](std::size_t i) { out[i] = std::exp(out[i]); });
}

void compound_poisson_many(double rate, std::complex<double>* base,
                           std::complex<double>* extra, std::size_t n) {
  double* x = parts(extra);
  map_with_fallback(
      n,
      [=](std::size_t i) {
        const double re = rate * (x[2 * i] - 1.0);
        const double im = rate * x[2 * i + 1];
        const elementary::Value e = elementary::complex_exp(re, im);
        x[2 * i] = e.in_domain ? e.re : re;
        x[2 * i + 1] = e.in_domain ? e.im : im;
        return e.in_domain;
      },
      [=](std::size_t i) { extra[i] = std::exp(extra[i]); });
  double* b = parts(base);
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<double> product =
        complex_mul({b[2 * i], b[2 * i + 1]}, {x[2 * i], x[2 * i + 1]});
    b[2 * i] = product.real();
    b[2 * i + 1] = product.imag();
  }
}

}  // namespace cosm::numerics
