#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/require.hpp"

namespace cosm {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 mixer(seed);
  for (auto& word : s_) word = mixer.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  COSM_REQUIRE(lo <= hi, "uniform bounds must be ordered");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  COSM_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double rate) {
  COSM_REQUIRE(rate > 0, "exponential rate must be positive");
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::normal(double mean, double stddev) {
  COSM_REQUIRE(stddev >= 0, "normal stddev must be non-negative");
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Box–Muller.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::gamma(double shape, double rate) {
  COSM_REQUIRE(shape > 0, "gamma shape must be positive");
  COSM_REQUIRE(rate > 0, "gamma rate must be positive");
  if (shape < 1.0) {
    // Boost a Gamma(shape + 1) variate down: X = Y * U^(1/shape).
    const double y = gamma(shape + 1.0, rate);
    const double u = 1.0 - uniform();
    return y * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal(0.0, 1.0);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v / rate;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v / rate;
    }
  }
}

double Rng::pareto(double shape, double scale) {
  COSM_REQUIRE(shape > 0 && scale > 0, "pareto parameters must be positive");
  return scale / std::pow(1.0 - uniform(), 1.0 / shape);
}

bool Rng::bernoulli(double p) {
  COSM_REQUIRE(p >= 0 && p <= 1, "bernoulli probability must be in [0, 1]");
  return uniform() < p;
}

std::uint64_t Rng::poisson(double mean) {
  COSM_REQUIRE(mean >= 0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Multiplicative inversion.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  // PTRS (transformed rejection with squeeze), Hörmann 1993.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = uniform() - 0.5;
    const double v = uniform();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    const double log_accept = std::log(v * inv_alpha / (a / (us * us) + b));
    if (log_accept <= k * std::log(mean) - mean - std::lgamma(k + 1.0)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

Rng Rng::fork() { return Rng(next_u64()); }

WeightedSampler::WeightedSampler(const std::vector<double>& weights)
    : weight_(weights) {
  const std::size_t n = weights.size();
  COSM_REQUIRE(n > 0, "weighted sampler needs a non-empty weight set");
  COSM_REQUIRE(n <= 0xFFFFFFFFull,
               "weight set exceeds 32-bit alias table");
  norm_ = 0.0;
  for (const double w : weights) {
    COSM_REQUIRE(w >= 0, "weights must be non-negative");
    norm_ += w;
  }
  COSM_REQUIRE(norm_ > 0, "at least one weight must be positive");
  // Vose's alias-table construction.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] / norm_ * static_cast<double>(n);
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<std::uint32_t>(i));
    } else {
      large.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      small.push_back(l);
    } else {
      large.push_back(l);
    }
  }
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t WeightedSampler::sample(Rng& rng) const {
  const std::size_t column = rng.uniform_index(prob_.size());
  return rng.uniform() < prob_[column] ? column : alias_[column];
}

double WeightedSampler::probability(std::size_t index) const {
  COSM_REQUIRE(index < weight_.size(), "sampler index out of range");
  return weight_[index] / norm_;
}

std::vector<double> ZipfSampler::zipf_weights(std::size_t n, double skew) {
  COSM_REQUIRE(n > 0, "zipf needs a non-empty rank set");
  COSM_REQUIRE(skew >= 0, "zipf skew must be non-negative");
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), skew);
  }
  return weights;
}

ZipfSampler::ZipfSampler(std::size_t n, double skew)
    : skew_(skew), sampler_(zipf_weights(n, skew)) {}

}  // namespace cosm
