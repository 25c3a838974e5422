// Numerical inversion of Laplace transforms.
//
// The model's outputs (waiting-time and response-latency distributions)
// exist only as Laplace transforms; predicting "the percentile of requests
// meeting a 100 ms SLA" means evaluating the CDF at the SLA, i.e. inverting
// L[F](s) = L[f](s) / s at t = SLA.  The one algorithm is Euler
// (Abate–Whitt 2006 unified framework): robust for CDFs (bounded,
// monotone), it needs complex evaluations on a vertical contour
// Re s = const > 0.
//
// At a jump discontinuity of F the inversion converges to the midpoint; SLA
// evaluation points in the experiments sit away from the model's atoms.
//
// Batching: every inversion materializes its whole contour up front and
// issues ONE transform evaluation over all nodes, then reduces.  The
// scalar LaplaceFn overloads loop that evaluation per node; the
// BatchLaplaceFn overloads hand the full node array to the callee (a
// Distribution::laplace_many loop, or a compiled TransformTape) in one
// call.  Per-node arithmetic is identical either way, so scalar and
// batched paths are bit-identical — the contract the tape's perf gates
// and tests/numerics/test_transform_tape.cpp enforce.
//
// Thread-safety: every function here is safe to call concurrently — the
// Euler xi weights are built once per term count into a read-only
// table, contour scratch buffers are thread-local, and all remaining
// state is call-local.  The provided `lt`
// callback itself must be safe to invoke from multiple threads; every
// Distribution in this repo qualifies (they are immutable after
// construction).
//
// Units: `t` is in the same unit as the random variable behind the
// transform — seconds everywhere in this repo.  `lt` must be the
// Laplace(–Stieltjes) transform with `s` in reciprocal units (1/s).
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace cosm::numerics {

using LaplaceFn = std::function<std::complex<double>(std::complex<double>)>;
// Batched transform evaluation: fill out[i] = L(s[i]) for every i (spans
// have equal length).  Bind Distribution::laplace_many or
// TransformTape::evaluate here.
using BatchLaplaceFn = std::function<void(
    std::span<const std::complex<double>>, std::span<std::complex<double>>)>;

// The one error budget of a model CDF: absolute, on F.  The model's own
// error against the simulator is at the percent level, so F needs no
// more than this; it sets the Euler order the model inverts at
// (core::kModelEulerOrder) and solve_quantile's stop.
inline constexpr double kCdfErrorBudget = 1e-7;

// Inverts L[f] at t with the Euler algorithm using 2M+1 terms.
// Preconditions: t > 0 (seconds), 2 <= m <= 30 — M around 20 is the sweet
// spot in double precision (the binomial weights grow like 10^{M/3};
// beyond ~M=25 cancellation dominates).  Violations throw
// std::invalid_argument.  Costs 2M+1 evaluations of `lt` on the vertical
// contour Re s = M ln(10) / (3t).
double invert_euler(const LaplaceFn& lt, double t, int m = 20);
// Batched form: one lt_many call over the whole contour; bit-identical to
// the scalar overload.
double invert_euler(const BatchLaplaceFn& lt_many, double t, int m = 20);

// Quality verdict of one CDF inversion — how far the raw Euler sum sat
// outside the mathematically required [0, 1] before the clamp:
//  * kConverged  — in range up to the model's error budget
//                  (excess <= kCdfErrorBudget, 1e-7 on F: a raw sum
//                  that close to [0, 1] is as good as any in-range one);
//  * kTruncated  — visible series-truncation overshoot (excess <= 1e-3):
//                  the result is usable but the term count is marginal
//                  for this transform at this t;
//  * kClamped    — the raw value was wildly out of range (e.g. -0.4): the
//                  clamped value is a fabrication, not an estimate — the
//                  inversion diverged for this transform/t/m combination;
//  * kNonFinite  — the raw value was NaN or infinite (overflow inside the
//                  transform or the reduction).
// Every inversion bumps exactly one obs counter (inversion.converged /
// .truncated / .clamped / .nonfinite) so failed inversions are visible in
// any traced run; the *_checked entry points additionally hand the
// verdict to the caller.  See docs/OBSERVABILITY.md for the semantics.
enum class InversionQuality : std::uint8_t {
  kConverged,
  kTruncated,
  kClamped,
  kNonFinite,
};

// Classifies a raw (pre-clamp) CDF value against the thresholds above.
InversionQuality classify_cdf_value(double raw);

// A CDF point with its quality verdict.  `value` preserves the historical
// return exactly (clamped to [0, 1]; a non-finite raw value propagates
// unchanged) so checked and unchecked paths are bit-identical.
struct CdfPoint {
  double value = 0.0;
  InversionQuality quality = InversionQuality::kConverged;
};

// Evaluates the CDF at t of the distribution whose density transform is
// `lt`, by inverting lt(s)/s; the result is clamped to [0, 1].  t <= 0
// returns 0 (our latencies are strictly positive away from atoms at zero,
// where inversion is ill-posed anyway).  This is the pipeline's unit of
// work — one SLA-percentile query per device costs exactly one call —
// and what core::PredictionCache memoizes across identical devices.
// The inversion's quality verdict is recorded in the obs counters; use
// the _checked form to receive it directly.
double cdf_from_laplace(const LaplaceFn& lt, double t, int m = 20);
// Batched form; bit-identical to the scalar overload.
double cdf_from_laplace(const BatchLaplaceFn& lt_many, double t, int m = 20);

// Checked forms: same value, plus the quality verdict.  A kClamped or
// kNonFinite verdict means the returned value is NOT a valid CDF estimate
// and must not be silently trusted.
CdfPoint cdf_from_laplace_checked(const LaplaceFn& lt, double t, int m = 20);
CdfPoint cdf_from_laplace_checked(const BatchLaplaceFn& lt_many, double t,
                                  int m = 20);

// Multi-point CDF evaluation: one value per entry of `ts` (entries <= 0
// yield 0).  Materializes the contours of ALL t-points and issues a
// single lt_many call over the concatenation, so SLA sweeps amortize
// transform setup (tape dispatch, virtual-call batching) across points.  Element i is bit-identical to
// cdf_from_laplace(lt_many, ts[i], m).
std::vector<double> cdf_many_from_laplace(const BatchLaplaceFn& lt_many,
                                          std::span<const double> ts,
                                          int m = 20);
// Quality-propagating form: quality[i] receives the verdict for ts[i]
// (entries with ts[i] <= 0 report kConverged for their exact 0).
// Precondition: quality.size() == ts.size().  Values are bit-identical
// to the quality-less overload — out-of-range raw sums are still clamped
// into the returned vector, but the verdict tells the caller (and the
// obs counters tell any traced run) that flooring happened.
std::vector<double> cdf_many_from_laplace(const BatchLaplaceFn& lt_many,
                                          std::span<const double> ts, int m,
                                          std::span<InversionQuality> quality);

// One probe of a quantile search: the CDF at t and the density at t,
// read from ONE transform evaluation over the Euler contour (the identity
// L[F](s) = L[f](s)/s: the same node values, reduced as values/s, give F,
// and reduced as-is give f).  `cdf` is bit-identical to
// cdf_from_laplace_checked at the same t; `density` is the raw Euler sum
// (unclamped; near atoms and at the ~1e-8 error floor it can be slightly
// negative).
struct CdfDensityPoint {
  CdfPoint cdf;
  double density = 0.0;
};

// Evaluates F(t) and f(t) from one contour fill and one lt_many call.
// Counts as ONE inversion (inversion.calls), with F's quality verdict.
// t <= 0 returns {0, kConverged} and density 0 without evaluating.
CdfDensityPoint cdf_density_from_laplace(const BatchLaplaceFn& lt_many,
                                         double t, int m = 20);

// The one quantile solver: core::SystemModel::latency_quantile runs it
// over the model's (F, f) probes.
// Safeguarded Newton on the log-survival g(t) = ln(1 - F(t)) - ln(1 - p),
// which is nearly linear in t for queueing tails; each probe reads F and
// f from one `probe` call, and the step is
//   t' = t + (ln(1 - F) - ln(1 - p)) (1 - F) / f.
// Safeguards: the solver keeps a bracket lo < root <= hi of probed points
// (F < p below, F >= p above).  It replaces the Newton step by a
// bisection of the bracket whenever f <= 0, 1 - F <= 0, the step leaves
// the bracket, or it is more than half the step before last.  While hi is
// unknown that replacement doubles t (and Newton may not more than double
// it); while lo is unknown it drops t a decade (and Newton may not drop
// it further).  It stops and returns t + step when a Newton step has
// |step| <= max(1e-9 t, kCdfErrorBudget / f), f > 0 the probe's density
// (the probe's F is then within the CDF error budget of p, which places
// the root no closer than budget / f), or when a bisection step has
// |step| <= 1e-9 t.
//
// Seed: every search starts at mean_hint · max(1, -ln(1 - p)) (the
// quantile of an exponential with that mean, never below the mean), so
// the root is a function of (probe, p, mean_hint) alone and callers may
// cache it.  Every search bumps quantile.cold_start; the step after each
// probe bumps quantile.newton_steps or quantile.bisect_steps.
// Preconditions: 0 < p < 1, mean_hint > 0 (seconds).  Throws
// std::invalid_argument if the quantile cannot be bracketed below t_max
// or above 1e-14 · mean_hint, a probe returns a non-finite F, or the
// search does not converge within 200 probes.
using CdfDensityFn = std::function<CdfDensityPoint(double)>;
double solve_quantile(const CdfDensityFn& probe, double p, double mean_hint,
                      double t_max = 1e9);

// ------------------- contour plumbing (shared internals) ------------------
//
// The scalar inverters, the batched inverters, and TransformTape's fused
// inversion entry points all build the same Euler contours and reduce
// with the same weights, in the same node order.  These helpers are the single
// source of truth for that arithmetic; they are public so the tape unit
// (and tests) can reuse them, but they are an implementation detail of
// the inversion layer, not a stable API.

// Number of Euler contour nodes for term count m: 2m + 1.
int euler_terms(int m);
// Fills out[k] = (M ln10/3 + i·pi·k) / t for k in [0, 2m]; out.size()
// must equal euler_terms(m).
void euler_fill_nodes(double t, int m, std::span<std::complex<double>> out);
// Euler reduction sum_k eta_k Re(values[k]) / t, with the same weight
// expressions and summation order as the scalar loop.
double euler_reduce(double t, int m,
                    std::span<const std::complex<double>> values);

}  // namespace cosm::numerics
