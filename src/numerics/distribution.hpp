// Distribution framework for the latency model.
//
// The paper's model manipulates latency distributions almost entirely in
// Laplace-transform space: convolution of latency components multiplies
// transforms, the Pollaczek–Khinchine formula produces a waiting-time
// transform, and the union operation is a compound-Poisson transform.  A
// Distribution therefore exposes:
//
//   laplace(s)       — the Laplace–Stieltjes transform E[e^{-sT}] for
//                      complex s (evaluated along inversion contours),
//   mean(), second_moment(), variance() — moments used by P–K and tests,
//   cdf(t)           — P[T <= t]; closed form where available, otherwise
//                      numerical inversion of laplace(s)/s,
//   sample(rng)      — a random variate, used by the discrete-event
//                      simulator so model and simulator consume *the same*
//                      distribution objects.
//
// All distributions describe non-negative random variables (latencies).
//
// Distributions are immutable: every parameter is fixed at construction
// and no member function changes the value.  numerics::fingerprint relies
// on it to memoize each object's value fingerprint (memo_cache.hpp).
#pragma once

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/rng.hpp"

namespace cosm::numerics {

class Distribution {
 public:
  Distribution() = default;
  // The fingerprint memo belongs to the object, not to its value: a copy
  // starts without one, and assignment (which changes the value) drops
  // it.  Either way the next fingerprint() recomputes from the value.
  Distribution(const Distribution&) noexcept {}
  Distribution& operator=(const Distribution&) noexcept {
    fingerprint_.store(0, std::memory_order_relaxed);
    return *this;
  }
  virtual ~Distribution() = default;

  virtual std::string name() const = 0;

  // Laplace–Stieltjes transform E[e^{-sT}].
  virtual std::complex<double> laplace(std::complex<double> s) const = 0;

  // Batched transform evaluation: out[i] = laplace(s[i]) for every i.
  // The default implementation is a scalar loop, so every subclass is
  // automatically correct; it exists so batched inversion (lt_inversion's
  // BatchLaplaceFn overloads, TransformTape's generic-leaf op) has one
  // compatibility entry point for distributions the tape compiler cannot
  // flatten.  Overrides MUST produce bit-identical values to the scalar
  // loop (same per-point arithmetic order) — the inversion layer's
  // bit-identity guarantee rests on it.  Precondition: out.size() ==
  // s.size().
  virtual void laplace_many(std::span<const std::complex<double>> s,
                            std::span<std::complex<double>> out) const;

  virtual double mean() const = 0;

  // E[T^2]; NaN when no closed form is implemented.
  virtual double second_moment() const;

  // E[T^3]; NaN when no closed form is implemented.  Needed by the
  // equilibrium-residual second moment E[R^2] = E[T^3] / (3 E[T]) that
  // the M/G/1/K sojourn moments use.
  virtual double third_moment() const;

  // Var[T], derived from second_moment() unless overridden.
  virtual double variance() const;

  // P[T <= t].  The default implementation numerically inverts
  // laplace(s)/s with the Abate–Whitt Euler algorithm and clamps to [0,1].
  virtual double cdf(double t) const;

  // Draw a variate.  Throws std::logic_error for transform-only
  // distributions (e.g. P–K waiting times), which the simulator never uses.
  virtual double sample(Rng& rng) const;

 private:
  friend std::uint64_t fingerprint(const Distribution& dist);
  // fingerprint(*this) once computed; 0 = not yet (a fingerprint that is
  // itself 0 is simply recomputed each time).  Relaxed is enough: the
  // value is a pure function of the immutable parameters, so every thread
  // that computes it stores the same bits.
  mutable std::atomic<std::uint64_t> fingerprint_{0};
};

using DistPtr = std::shared_ptr<const Distribution>;

// -------------------------- concrete distributions -----------------------

// Point mass at a constant value >= 0 (the paper's Degenerate distribution;
// request parsing latency fits this on the authors' testbed).
class Degenerate final : public Distribution {
 public:
  explicit Degenerate(double value);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override { return value_; }
  double second_moment() const override { return value_ * value_; }
  double third_moment() const override {
    return value_ * value_ * value_;
  }
  double cdf(double t) const override { return t >= value_ ? 1.0 : 0.0; }
  double sample(Rng& rng) const override;
  double value() const { return value_; }

 private:
  double value_;
};

class Exponential final : public Distribution {
 public:
  explicit Exponential(double rate);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override { return 1.0 / rate_; }
  double second_moment() const override { return 2.0 / (rate_ * rate_); }
  double third_moment() const override {
    return 6.0 / (rate_ * rate_ * rate_);
  }
  double cdf(double t) const override;
  double sample(Rng& rng) const override;
  double rate() const { return rate_; }

 private:
  double rate_;
};

// The Gamma (and Erlang) transform (l / (l + s))^k, written with
// u + iv = s / l as
//   exp(-k/2 log1p(2u + u^2 + v^2)) cis(-k atan2(v, 1 + u)),
// i.e. exp(-k log(1 + s/l)) on the principal branch with the modulus and
// argument of 1 + s/l taken directly: no complex division or clog, and
// log1p keeps full relative accuracy as |s/l| -> 0 without a series
// branch.  Gamma::laplace, Erlang::laplace and the transform tape's
// Gamma/Erlang leaves all call this one function, which keeps tape and
// tree bit-identical.
inline std::complex<double> gamma_laplace(double shape, double rate,
                                          std::complex<double> s) {
  const double u = s.real() / rate;
  const double v = s.imag() / rate;
  const double modulus =
      std::exp(-0.5 * shape * std::log1p(2.0 * u + u * u + v * v));
  const double phase = -shape * std::atan2(v, 1.0 + u);
  return {modulus * std::cos(phase), modulus * std::sin(phase)};
}

// Gamma(shape k, rate l): the distribution the paper fits to disk service
// times (Fig. 5).  L[f](s) = l^k (s + l)^{-k}, mean k / l.
class Gamma final : public Distribution {
 public:
  Gamma(double shape, double rate);
  static Gamma from_mean_shape(double mean, double shape);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override { return shape_ / rate_; }
  double second_moment() const override {
    return shape_ * (shape_ + 1.0) / (rate_ * rate_);
  }
  double third_moment() const override {
    return shape_ * (shape_ + 1.0) * (shape_ + 2.0) /
           (rate_ * rate_ * rate_);
  }
  double cdf(double t) const override;
  double sample(Rng& rng) const override;
  double quantile(double p) const;
  double shape() const { return shape_; }
  double rate() const { return rate_; }

 private:
  double shape_;
  double rate_;
};

class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override { return 0.5 * (lo_ + hi_); }
  double second_moment() const override {
    return (lo_ * lo_ + lo_ * hi_ + hi_ * hi_) / 3.0;
  }
  double third_moment() const override {
    // (hi^4 - lo^4) / (4 (hi - lo)).
    const double hi2 = hi_ * hi_;
    const double lo2 = lo_ * lo_;
    return (hi2 * hi2 - lo2 * lo2) / (4.0 * (hi_ - lo_));
  }
  double cdf(double t) const override;
  double sample(Rng& rng) const override;
  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
};

// Normal(mu, sigma) left-truncated at zero — the "Normal" fitting candidate
// of Section IV-A, made proper for non-negative latencies.  The Laplace
// transform has no convenient closed form for complex s, so it is computed
// by Gauss–Legendre quadrature of e^{-st} f(t); safe on contours with
// bounded |Re s| * support (the Euler inversion contour qualifies).
class TruncatedNormal final : public Distribution {
 public:
  TruncatedNormal(double mu, double sigma);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override;
  double second_moment() const override;
  double cdf(double t) const override;
  double sample(Rng& rng) const override;
  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double pdf(double t) const;
  double mu_;
  double sigma_;
  double z_;  // normalizing constant P[N(mu, sigma) >= 0]
};

class Lognormal final : public Distribution {
 public:
  Lognormal(double mu_log, double sigma_log);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override;
  double second_moment() const override;
  double cdf(double t) const override;
  double sample(Rng& rng) const override;

 private:
  double pdf(double t) const;
  double mu_;
  double sigma_;
};

class Weibull final : public Distribution {
 public:
  Weibull(double shape, double scale);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override;
  double second_moment() const override;
  double cdf(double t) const override;
  double sample(Rng& rng) const override;

 private:
  double pdf(double t) const;
  double shape_;
  double scale_;
};

class Pareto final : public Distribution {
 public:
  // P[T > t] = (scale / t)^shape for t >= scale; shape > 2 gives finite
  // variance.
  Pareto(double shape, double scale);
  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override;
  double second_moment() const override;
  double cdf(double t) const override;
  double sample(Rng& rng) const override;

 private:
  double pdf(double t) const;
  double shape_;
  double scale_;
};

}  // namespace cosm::numerics
