// Deterministic pseudo-random number generation for simulation and
// workload synthesis.
//
// Every stochastic component in cosmodel takes an explicit Rng (or a seed),
// so experiments are reproducible bit-for-bit.  The generator is
// xoshiro256** seeded through SplitMix64, which is fast, has a 256-bit
// state, and passes BigCrush; variate transforms (exponential, gamma,
// Poisson, Zipf, ...) are implemented here rather than via <random>
// distributions because libstdc++ distribution implementations are not
// stable across versions, which would break golden-value tests.
#pragma once

#include <cstdint>
#include <vector>

namespace cosm {

// SplitMix64: used to expand a single 64-bit seed into generator state.
// Public because tests and hashing code reuse it as a cheap mixer.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256** by Blackman & Vigna, with variate transforms layered on top.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDu);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  // Uniform in [0, 1).  53 bits of mantissa.
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  // Standard variates.
  double exponential(double rate);
  double normal(double mean, double stddev);
  double lognormal(double mu, double sigma);
  // Gamma(shape k, rate l) — Marsaglia–Tsang squeeze for k >= 1, boosting
  // for k < 1.  Mean is k / l.
  double gamma(double shape, double rate);
  double pareto(double shape, double scale);
  bool bernoulli(double p);
  // Poisson counting variate; uses inversion for small means and the PTRS
  // transformed-rejection method for large means.
  std::uint64_t poisson(double mean);

  // Derive an independent child stream (for per-entity generators).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  // Cached second Box–Muller variate.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// O(1) categorical sampling over arbitrary non-negative weights via
// Vose's alias method; the table is built once at construction.
class WeightedSampler {
 public:
  explicit WeightedSampler(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const;

  std::size_t size() const { return prob_.size(); }
  // Normalized probability of one index.
  double probability(std::size_t index) const;

 private:
  double norm_;  // sum of input weights
  std::vector<double> weight_;  // original weights (for probability())
  std::vector<double> prob_;    // alias-table acceptance probabilities
  std::vector<std::uint32_t> alias_;
};

// Sampler for a Zipf(s) distribution over ranks {0, ..., n-1} where rank 0
// is the most popular; a thin wrapper over WeightedSampler.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double skew);

  std::size_t sample(Rng& rng) const { return sampler_.sample(rng); }
  std::size_t size() const { return sampler_.size(); }
  double skew() const { return skew_; }
  // Probability of a given rank (for tests and analytic cross-checks).
  double probability(std::size_t rank) const {
    return sampler_.probability(rank);
  }

 private:
  static std::vector<double> zipf_weights(std::size_t n, double skew);

  double skew_;
  WeightedSampler sampler_;
};

}  // namespace cosm
