// Bit-identity of the transform tape against the scalar tree walk — the
// tape's hard contract.  Every EXPECT on transform values uses exact
// double equality: the tape must replicate the scalar per-node arithmetic
// order, not merely approximate it.

#include "numerics/transform_tape.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "numerics/compose.hpp"
#include "numerics/distribution.hpp"
#include "numerics/lt_inversion.hpp"
#include "numerics/transform_nodes.hpp"
#include "obs/obs.hpp"
#include "queueing/mg1.hpp"
#include "queueing/mg1k.hpp"
#include "queueing/mm1k.hpp"

// Allocation counter: every operator new in this binary bumps it, so the
// workspace-leasing tests can assert that steady-state tape evaluation
// performs zero heap allocations (same pattern as tests/obs/test_obs.cpp).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs inlined make_shared allocations (through our operator new)
// with these free() calls and reports a mismatch; the pairing is exactly
// what we intend — new/new[] allocate with malloc.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cosm::numerics {
namespace {

using Complex = std::complex<double>;

// Contour-like probe points plus the guard-branch neighborhoods (tiny
// |s| for the P–K / M/M/1/K / M/G/1/K / Gamma guard branches).
std::vector<Complex> probe_points() {
  std::vector<Complex> s;
  for (int k = 0; k < 21; ++k) {
    s.emplace_back(15.35, 3.1415 * k * 9.7);  // Euler-style vertical line
  }
  s.emplace_back(1e-16, 0.0);   // below every small-|s| guard
  s.emplace_back(1e-9, 1e-9);   // below the 1e-8 guards
  s.emplace_back(1e-7, 0.0);    // between guards
  s.emplace_back(0.5, -2.0);    // negative imaginary part
  s.emplace_back(250.0, 1000.0);
  return s;
}

void expect_tape_bit_identical(const DistPtr& dist) {
  const TransformTape tape = TransformTape::compile(dist);
  ASSERT_TRUE(tape.compiled());
  const std::vector<Complex> s = probe_points();
  std::vector<Complex> batched(s.size());
  tape.evaluate(s, batched);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Complex scalar = dist->laplace(s[i]);
    EXPECT_EQ(scalar.real(), batched[i].real())
        << dist->name() << " at s = " << s[i];
    EXPECT_EQ(scalar.imag(), batched[i].imag())
        << dist->name() << " at s = " << s[i];
  }
}

TEST(TransformTape, LeafDistributionsBitIdentical) {
  expect_tape_bit_identical(std::make_shared<Degenerate>(0.0));
  expect_tape_bit_identical(std::make_shared<Degenerate>(3.25e-3));
  expect_tape_bit_identical(std::make_shared<Exponential>(123.5));
  expect_tape_bit_identical(std::make_shared<Gamma>(3.7, 412.0));
  expect_tape_bit_identical(std::make_shared<Gamma>(250.0, 1e4));
  expect_tape_bit_identical(std::make_shared<Gamma>(4.0, 800.0));
}

TEST(TransformTape, QuadratureLeavesUseGenericPathBitIdentical) {
  // No closed form: these must compile to generic laplace_many leaves.
  const auto lognormal = std::make_shared<Lognormal>(-6.0, 0.8);
  const TransformTape tape = TransformTape::compile(lognormal);
  EXPECT_EQ(tape.generic_leaf_count(), 1u);
  expect_tape_bit_identical(lognormal);
  expect_tape_bit_identical(std::make_shared<TruncatedNormal>(5e-3, 2e-3));
  expect_tape_bit_identical(std::make_shared<Pareto>(2.5, 1e-3));
}

TEST(TransformTape, QueueingNodesBitIdentical) {
  const auto service = std::make_shared<Gamma>(3.0, 900.0);
  const queueing::MG1 mg1(120.0, service);
  expect_tape_bit_identical(mg1.waiting_time());
  expect_tape_bit_identical(mg1.sojourn_time());

  const queueing::MM1K mm1k(300.0, 400.0, 4);
  expect_tape_bit_identical(mm1k.sojourn_time());

  const queueing::MG1K mg1k(300.0, service, 4);
  expect_tape_bit_identical(mg1k.sojourn_time());
}

// Bitwise equality: tells -0.0 from +0.0, which EXPECT_EQ on doubles
// does not.
void expect_same_bits(Complex expected, Complex actual, Complex s) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.real()),
            std::bit_cast<std::uint64_t>(actual.real()))
      << expected << " vs " << actual << " at s = " << s;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.imag()),
            std::bit_cast<std::uint64_t>(actual.imag()))
      << expected << " vs " << actual << " at s = " << s;
}

// Tape values at `s`, checked bit for bit against the tree walk.
std::vector<Complex> tape_matches_tree_bitwise(const DistPtr& dist,
                                               const std::vector<Complex>& s) {
  const TransformTape tape = TransformTape::compile(dist);
  std::vector<Complex> batched(s.size());
  tape.evaluate(s, batched);
  for (std::size_t i = 0; i < s.size(); ++i) {
    expect_same_bits(dist->laplace(s[i]), batched[i], s[i]);
  }
  return batched;
}

TEST(TransformTape, ZeroAtomLeafMatchesExpBitwise) {
  // The Degenerate leaf writes exp(-s·v) at an exactly zero argument
  // without calling exp; every signed zero, negative real parts and huge
  // or infinite magnitudes must still give std::exp's bits.
  constexpr double kHuge = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Complex> s = {
      {0.0, 0.0},     {-0.0, 0.0},     {0.0, -0.0},     {-0.0, -0.0},
      {-3.5, 0.0},    {-3.5, -2.0},    {-1e-300, -0.0}, {1e300, -1e300},
      {kHuge, kHuge}, {-kHuge, 7.0},   {kInf, 0.0},     {0.0, -kInf},
      {15.35, 30.47}, {-0.0, 1e-320},
  };
  for (const double factor : {1.0, 3.0, 1e-300}) {
    const DistPtr atom = std::make_shared<Degenerate>(0.0);
    const DistPtr leaf =
        factor == 1.0 ? atom : std::make_shared<Scaled>(atom, factor);
    const std::vector<Complex> values = tape_matches_tree_bitwise(leaf, s);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const Complex arg = factor == 1.0 ? s[i] : factor * s[i];
      expect_same_bits(std::exp(-arg * 0.0), values[i], s[i]);
    }
  }
  // A non-zero atom only meets a zero argument at s = ±0.
  tape_matches_tree_bitwise(std::make_shared<Degenerate>(2.5e-3), s);
  tape_matches_tree_bitwise(
      std::make_shared<Scaled>(std::make_shared<Degenerate>(1e-3), 0.5), s);
  // The atom inside a hit/miss mixture, as the device models use it.
  tape_matches_tree_bitwise(
      atom_at_zero_mixture(0.3, std::make_shared<Gamma>(2.8, 233.33)), s);
}

TEST(TransformTape, SmallModulusGuardsMatchTreeWalkAtTheBound) {
  // The |s| guards test the components before the hypot.  Probes sit on
  // either side of each bound: one component under it, both under it
  // with the modulus under it, and both under it with the modulus over
  // it (8e-15·sqrt(2) > 1e-14).
  const std::vector<Complex> below = {
      {1e-15, 0.0}, {0.0, 1e-15}, {7e-15, 7e-15}, {-7e-15, -7e-15}};
  const std::vector<Complex> around = {
      {1e-15, 0.0},   {0.0, 1e-15},   {7e-15, 7e-15}, {8e-15, 8e-15},
      {1e-14, 0.0},   {0.0, -1e-14},  {2e-14, 1e-16}, {-8e-15, 8e-15},
      {1e-15, 1e-13}, {15.35, 30.47}};
  const auto service = std::make_shared<Gamma>(3.0, 900.0);
  const queueing::MG1 mg1(120.0, service);
  const queueing::MM1K mm1k(300.0, 400.0, 4);
  for (const DistPtr& guarded : {mg1.waiting_time(), mm1k.sojourn_time()}) {
    tape_matches_tree_bitwise(guarded, around);
    // Under the bound the guard's exact unit value is taken.
    for (const Complex value : tape_matches_tree_bitwise(guarded, below)) {
      EXPECT_EQ(value, Complex(1.0, 0.0)) << guarded->name();
    }
  }
  // M/G/1/K tests |s|·E[B] < 1e-8: the same probes scaled to its bound.
  const queueing::MG1K mg1k(300.0, service, 4);
  const double mean_service = service->mean();
  std::vector<Complex> mg1k_around;
  for (const Complex z : around) {
    mg1k_around.push_back(z * (1e6 / mean_service));
  }
  tape_matches_tree_bitwise(mg1k.sojourn_time(), mg1k_around);
}

TEST(TransformTape, CombinatorsBitIdentical) {
  const auto gamma = std::make_shared<Gamma>(2.8, 560.0);
  const auto expo = std::make_shared<Exponential>(220.0);
  const auto mix = atom_at_zero_mixture(0.35, gamma);
  const auto conv = std::make_shared<Convolution>(
      std::vector<DistPtr>{mix, expo, std::make_shared<Degenerate>(4e-4)});
  const auto compound =
      std::make_shared<CompoundPoissonConvolution>(conv, 0.8, mix);
  const auto scaled = std::make_shared<Scaled>(compound, 1.5);
  expect_tape_bit_identical(mix);
  expect_tape_bit_identical(conv);
  expect_tape_bit_identical(compound);
  expect_tape_bit_identical(scaled);
}

TEST(TransformTape, TieredServiceBitIdentical) {
  // The tier mixture (tiering extension) compiles to its own kTierMix op
  // whose weights are the node's stored pair, so the tape reproduces the
  // tree walk's hit_ratio * hit + miss_ratio * miss exactly.
  const auto ssd = std::make_shared<Gamma>(4.0, 4000.0);
  const auto disk = std::make_shared<Gamma>(2.1, 55.0);
  const auto tiered = std::make_shared<TieredService>(0.73, ssd, disk);
  expect_tape_bit_identical(tiered);
  // Nested under the cache mixture and convolution, as BackendModel
  // composes it.
  const auto data = atom_at_zero_mixture(0.4, tiered);
  const auto conv = std::make_shared<Convolution>(
      std::vector<DistPtr>{data, std::make_shared<Exponential>(900.0)});
  expect_tape_bit_identical(conv);
}

TEST(TransformTape, TieredServiceFingerprintDistinctFromMixture) {
  // A tiered tree must not collide with the equivalent two-component
  // Mixture: tape fingerprints key the prediction cache.
  const auto ssd = std::make_shared<Gamma>(4.0, 4000.0);
  const auto disk = std::make_shared<Gamma>(2.1, 55.0);
  const auto tiered =
      TransformTape::compile(std::make_shared<TieredService>(0.73, ssd, disk));
  const auto mixture = TransformTape::compile(std::make_shared<Mixture>(
      std::vector<Mixture::Component>{{0.73, ssd}, {0.27, disk}}));
  EXPECT_NE(tiered.fingerprint(), mixture.fingerprint());
  const auto twin =
      TransformTape::compile(std::make_shared<TieredService>(0.73, ssd, disk));
  EXPECT_EQ(tiered.fingerprint(), twin.fingerprint());
  const auto other =
      TransformTape::compile(std::make_shared<TieredService>(0.74, ssd, disk));
  EXPECT_NE(tiered.fingerprint(), other.fingerprint());
}

TEST(TransformTape, NestedScalingEvaluatesInnerAtProductArgument) {
  // Scaled(Scaled(X, a), b) must evaluate X at a * (b * s), exactly as
  // the nested scalar walk does.
  const auto inner = std::make_shared<Gamma>(3.1, 700.0);
  const auto once = std::make_shared<Scaled>(inner, 1.3);
  const auto twice = std::make_shared<Scaled>(once, 0.7);
  expect_tape_bit_identical(twice);
}

TEST(TransformTape, SharedSubtreeIsEvaluatedOnceViaSlot) {
  // The same Gamma object under two mixtures: CSE must emit one
  // evaluation + store, and load it for the second occurrence.
  const auto shared = std::make_shared<Gamma>(2.0, 300.0);
  const auto left = atom_at_zero_mixture(0.3, shared);
  const auto right = atom_at_zero_mixture(0.6, shared);
  const auto conv =
      std::make_shared<Convolution>(std::vector<DistPtr>{left, right});
  const TransformTape tape = TransformTape::compile(conv);
  EXPECT_GE(tape.slot_count(), 1u);
  expect_tape_bit_identical(conv);

  // The same object under DIFFERENT scale factors is NOT the same
  // subexpression; values must still match the scalar walk.
  const auto scaled_mix = std::make_shared<Mixture>(
      std::vector<Mixture::Component>{
          {0.5, std::make_shared<Scaled>(shared, 2.0)},
          {0.5, std::make_shared<Scaled>(shared, 3.0)}});
  expect_tape_bit_identical(scaled_mix);
}

TEST(TransformTape, FingerprintsDistinguishParametersAndMatchTwins) {
  const auto a = TransformTape::compile(std::make_shared<Gamma>(3.0, 500.0));
  const auto twin =
      TransformTape::compile(std::make_shared<Gamma>(3.0, 500.0));
  const auto other =
      TransformTape::compile(std::make_shared<Gamma>(3.0, 501.0));
  EXPECT_EQ(a.fingerprint(), twin.fingerprint());
  EXPECT_NE(a.fingerprint(), other.fingerprint());
}

TEST(TransformTape, CdfMatchesScalarInversionBitwise) {
  const auto service = std::make_shared<Gamma>(3.0, 900.0);
  const queueing::MG1 mg1(150.0, service);
  const DistPtr sojourn = mg1.sojourn_time();
  const TransformTape tape = TransformTape::compile(sojourn);
  const LaplaceFn lt = [&sojourn](Complex s) { return sojourn->laplace(s); };
  for (const double t : {1e-4, 2.3e-3, 8e-3, 2.5e-2, 0.4}) {
    EXPECT_EQ(tape.cdf(t), cdf_from_laplace(lt, t));
  }
  EXPECT_EQ(tape.cdf(0.0), 0.0);
  EXPECT_EQ(tape.cdf(-1.0), 0.0);
}

TEST(TransformTape, CdfManyMatchesPerPointBitwise) {
  const auto service = std::make_shared<Gamma>(2.5, 700.0);
  const queueing::MM1K disk(250.0, 350.0, 4);
  const auto response = std::make_shared<Convolution>(std::vector<DistPtr>{
      disk.sojourn_time(), service, std::make_shared<Degenerate>(5e-4)});
  const TransformTape tape = TransformTape::compile(response);
  const std::vector<double> ts = {-1.0, 0.0,  1e-4, 5e-3, 5e-3,
                                  2e-2, 0.11, 0.5,  2.0};
  const std::vector<double> batch = tape.cdf_many(ts);
  ASSERT_EQ(batch.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(batch[i], tape.cdf(ts[i])) << "t = " << ts[i];
  }
}

TEST(TransformTape, CdfDensityReadsBothFromOneContour) {
  const auto service = std::make_shared<Gamma>(3.0, 900.0);
  const queueing::MG1 mg1(150.0, service);
  const TransformTape tape = TransformTape::compile(mg1.sojourn_time());
  obs::reset();
  obs::set_enabled(true);
  // Points in the body of the sojourn (mean ~5.6 ms), where the central
  // difference below resolves f to better than 1e-5 relative; deep in
  // the tail its own 1/h-amplified inversion noise dominates.
  for (const double t : {1e-3, 2e-3, 5e-3, 1e-2, 2e-2}) {
    const std::uint64_t before =
        obs::counter_value(obs::Counter::kInversionCalls);
    const CdfDensityPoint point = tape.cdf_density(t);
    EXPECT_EQ(obs::counter_value(obs::Counter::kInversionCalls), before + 1);
    // F is the tape's CDF to the bit; f is its derivative.
    EXPECT_EQ(point.cdf.value, tape.cdf(t)) << "t = " << t;
    const double h = 1e-3 * t;
    const double central = (tape.cdf(t + h) - tape.cdf(t - h)) / (2.0 * h);
    EXPECT_NEAR(point.density, central, 1e-5 * central) << "t = " << t;
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(LaplaceManyDefault, MatchesScalarLoop) {
  const Lognormal dist(-6.2, 0.9);
  const std::vector<Complex> s = probe_points();
  std::vector<Complex> out(s.size());
  dist.laplace_many(s, out);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(out[i], dist.laplace(s[i]));
  }
}

// ---------------------------- concurrency --------------------------------
//
// The workspace-leasing contract (transform_tape.cpp): evaluations lease
// buffers from a thread-local pool, so (a) steady state allocates
// NOTHING, and (b) concurrent or interleaved evaluations never share a
// live workspace.  The hammer drives mixed tape shapes and batch widths
// from {1, 2, 8} threads; any cross-lease aliasing would corrupt values
// against the single-threaded reference, and any per-evaluation
// allocation trips the counter.

struct HammerScenario {
  TransformTape tape;
  std::vector<Complex> points;
  std::vector<Complex> exact;  // single-threaded reference
};

std::vector<HammerScenario> build_hammer_scenarios() {
  const auto gamma = std::make_shared<Gamma>(2.8, 560.0);
  const auto service = std::make_shared<Gamma>(3.0, 900.0);
  const queueing::MM1K disk(250.0, 350.0, 4);
  const queueing::MG1 mg1(120.0, service);
  const auto shared = std::make_shared<Gamma>(2.0, 300.0);
  const std::vector<DistPtr> trees = {
      // Plain leaf: the smallest workspace.
      gamma,
      // Queueing convolution: deeper value stack, P-K guard branches.
      std::make_shared<Convolution>(std::vector<DistPtr>{
          disk.sojourn_time(), service, std::make_shared<Degenerate>(5e-4)}),
      // Shared subtree under scaling: CSE slots plus argument planes.
      std::make_shared<CompoundPoissonConvolution>(
          std::make_shared<Scaled>(
              std::make_shared<Convolution>(std::vector<DistPtr>{
                  atom_at_zero_mixture(0.3, shared), shared}),
              1.5),
          0.8, mg1.waiting_time()),
      // Tier mixture over a two-exponential mixture.
      std::make_shared<TieredService>(
          0.73, std::make_shared<Gamma>(4.0, 4000.0),
          std::make_shared<Mixture>(std::vector<Mixture::Component>{
              {0.3, std::make_shared<Exponential>(100.0)},
              {0.7, std::make_shared<Exponential>(900.0)}})),
  };
  std::vector<HammerScenario> scenarios;
  const std::vector<Complex> all = probe_points();
  for (std::size_t i = 0; i < trees.size(); ++i) {
    HammerScenario s;
    s.tape = TransformTape::compile(trees[i]);
    // Varied batch widths, so leases are resized across scenarios rather
    // than always reusing an identically-sized buffer.
    const std::size_t width = 5 + 7 * i;
    s.points.assign(all.begin(), all.begin() + std::min(width, all.size()));
    s.exact.resize(s.points.size());
    s.tape.evaluate(s.points, s.exact);
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

TEST(TransformTapeConcurrency, LeasedEvaluationIsAllocationFreeAndUnaliased) {
  const std::vector<HammerScenario> scenarios = build_hammer_scenarios();
  std::size_t max_batch = 0;
  for (const HammerScenario& s : scenarios) {
    max_batch = std::max(max_batch, s.points.size());
  }

  for (const int thread_count : {1, 2, 8}) {
    std::atomic<std::uint64_t> mismatches{0};
    std::uint64_t allocs_before = 0;
    std::uint64_t allocs_after = 0;
    // Completion hooks run once all threads arrive and before any are
    // released, bracketing exactly the steady-state window.
    std::barrier start(thread_count, [&]() noexcept {
      allocs_before = g_allocations.load(std::memory_order_relaxed);
    });
    std::barrier finish(thread_count, [&]() noexcept {
      allocs_after = g_allocations.load(std::memory_order_relaxed);
    });

    std::vector<std::thread> workers;
    for (int t = 0; t < thread_count; ++t) {
      workers.emplace_back([&] {
        std::vector<Complex> out(max_batch);
        // Warmup leases and sizes this thread's pooled workspace for
        // every tape shape.
        for (const HammerScenario& s : scenarios) {
          s.tape.evaluate(s.points,
                          std::span<Complex>(out.data(), s.points.size()));
        }
        start.arrive_and_wait();
        for (int round = 0; round < 40; ++round) {
          for (const HammerScenario& s : scenarios) {
            const std::span<Complex> window(out.data(), s.points.size());
            s.tape.evaluate(s.points, window);
            for (std::size_t i = 0; i < s.points.size(); ++i) {
              if (out[i].real() != s.exact[i].real() ||
                  out[i].imag() != s.exact[i].imag()) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
        finish.arrive_and_wait();
      });
    }
    for (std::thread& worker : workers) worker.join();

    EXPECT_EQ(mismatches.load(), 0u)
        << thread_count << " threads: cross-lease aliasing";
    EXPECT_EQ(allocs_after, allocs_before)
        << thread_count
        << " threads: steady-state evaluation touched the heap";
  }
}

// ------------------------------ fuzzing ---------------------------------

// Random tree generator: composes the full node algebra (leaves,
// mixtures, convolutions, compound Poisson, scaling, shifting, queueing
// sojourns) with deliberate subtree *sharing* so CSE paths are exercised.
class TreeFuzzer {
 public:
  explicit TreeFuzzer(std::uint64_t seed) : rng_(seed) {}

  DistPtr build(int depth) {
    // Reuse an existing subtree 25% of the time once some exist: shared
    // nodes are what CSE must get right.
    if (!pool_.empty() && pick(4) == 0) {
      return pool_[pick(pool_.size())];
    }
    DistPtr result = depth <= 0 ? leaf() : combinator(depth);
    pool_.push_back(result);
    return result;
  }

 private:
  DistPtr leaf() {
    switch (pick(4)) {
      case 0:
        return std::make_shared<Degenerate>(uniform(0.0, 2e-3));
      case 1:
        return std::make_shared<Exponential>(uniform(50.0, 2000.0));
      case 2:
        return std::make_shared<Gamma>(uniform(0.5, 6.0),
                                       uniform(100.0, 3000.0));
      default:
        return std::make_shared<Gamma>(static_cast<double>(1 + pick(5)),
                                       uniform(200.0, 2000.0));
    }
  }

  DistPtr combinator(int depth) {
    switch (pick(6)) {
      case 0: {
        const double w = uniform(0.05, 0.95);
        return std::make_shared<Mixture>(std::vector<Mixture::Component>{
            {w, build(depth - 1)}, {1.0 - w, build(depth - 1)}});
      }
      case 1: {
        std::vector<DistPtr> parts;
        const std::size_t n = 2 + pick(2);
        for (std::size_t i = 0; i < n; ++i) parts.push_back(build(depth - 1));
        return std::make_shared<Convolution>(std::move(parts));
      }
      case 2:
        return std::make_shared<CompoundPoissonConvolution>(
            build(depth - 1), uniform(0.0, 2.0), build(depth - 1));
      case 3:
        return std::make_shared<Scaled>(build(depth - 1), uniform(0.2, 3.0));
      case 4: {
        // M/M/1/K sojourn leaf with randomized load below saturation.
        const double v = uniform(500.0, 2000.0);
        const queueing::MM1K q(uniform(0.3, 0.9) * v, v, 2 + pick(6));
        return q.sojourn_time();
      }
      default: {
        // P-K waiting time over a random (finite-moment) service law.
        const auto service =
            std::make_shared<Gamma>(uniform(1.0, 5.0),
                                    uniform(2000.0, 8000.0));
        const double rho = uniform(0.2, 0.85);
        const queueing::MG1 q(rho / service->mean(), service);
        return q.waiting_time();
      }
    }
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform() * static_cast<double>(n)) %
           n;
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * rng_.uniform();
  }

  cosm::Rng rng_;
  std::vector<DistPtr> pool_;
};

TEST(TransformTapeFuzz, RandomTreesBitIdenticalToScalarWalk) {
  const std::vector<Complex> s = probe_points();
  std::vector<Complex> batched(s.size());
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    TreeFuzzer fuzzer(seed);
    const DistPtr tree = fuzzer.build(4);
    const TransformTape tape = TransformTape::compile(tree);
    ASSERT_TRUE(tape.compiled()) << "seed " << seed;
    tape.evaluate(s, batched);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const Complex scalar = tree->laplace(s[i]);
      ASSERT_EQ(scalar.real(), batched[i].real())
          << "seed " << seed << " at s = " << s[i];
      ASSERT_EQ(scalar.imag(), batched[i].imag())
          << "seed " << seed << " at s = " << s[i];
    }
  }
}

TEST(TransformTapeFuzz, RandomTreeCdfManyMatchesScalarCdf) {
  const std::vector<double> ts = {1e-4, 1e-3, 5e-3, 2e-2, 0.1};
  for (std::uint64_t seed = 101; seed <= 120; ++seed) {
    TreeFuzzer fuzzer(seed);
    const DistPtr tree = fuzzer.build(3);
    const TransformTape tape = TransformTape::compile(tree);
    const LaplaceFn lt = [&tree](Complex s) { return tree->laplace(s); };
    const std::vector<double> batch = tape.cdf_many(ts);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(batch[i], cdf_from_laplace(lt, ts[i]))
          << "seed " << seed << " t = " << ts[i];
    }
  }
}

}  // namespace
}  // namespace cosm::numerics
