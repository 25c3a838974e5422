#include "numerics/memo_cache.hpp"

#include <bit>
#include <complex>
#include <string>

#include "numerics/distribution.hpp"

namespace cosm::numerics {

std::uint64_t hash_mix(std::uint64_t seed, std::uint64_t value) {
  // splitmix64 finalizer over seed ^ value, with a golden-ratio offset so
  // hash_mix(0, 0) != 0 and mixing is order-sensitive.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL + value;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_mix(std::uint64_t seed, double value) {
  // Bit-pattern hashing: NaNs (moments without closed forms) mix as their
  // payload bits, +0.0/-0.0 deliberately differ — exactness over cleverness.
  return hash_mix(seed, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fingerprint(const Distribution& dist) {
  std::uint64_t h = dist.fingerprint_.load(std::memory_order_relaxed);
  if (h != 0) return h;
  h = 0x636f736d0000000bULL;  // arbitrary domain tag
  for (const char c : dist.name()) {
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  h = hash_mix(h, dist.mean());
  h = hash_mix(h, dist.second_moment());
  h = hash_mix(h, dist.third_moment());
  // Two transform probes pin down distributions whose name + moments
  // coincide (e.g. different shapes tuned to equal mean and variance).
  // Fixed real parts keep the probes cheap and well-conditioned for every
  // latency-scale distribution in the repo.
  const std::complex<double> p1 = dist.laplace({1.0, 0.0});
  const std::complex<double> p2 = dist.laplace({12.5, 40.0});
  h = hash_mix(h, p1.real());
  h = hash_mix(h, p1.imag());
  h = hash_mix(h, p2.real());
  h = hash_mix(h, p2.imag());
  dist.fingerprint_.store(h, std::memory_order_relaxed);
  return h;
}

}  // namespace cosm::numerics
