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
// One inverter: invert_cdf takes many t at once, materializes the Euler
// contours of all of them, makes ONE batched transform evaluation over
// the concatenation, and reduces each point's node values twice — as-is
// for the density f(t), then divided by s for the CDF F(t).  The callee
// is a BatchLaplaceFn: a Distribution::laplace_many loop, a compiled
// TransformTape, or a test's scalar tree walk wrapped in a loop.  The
// per-node arithmetic does not depend on how the points are grouped, so
// element i of a multi-t call is bit-identical to a one-t call at ts[i].
//
// Thread-safety: invert_cdf is safe to call concurrently — the Euler
// weights are built once per term count into a read-only table, contour
// scratch buffers are thread-local, and all remaining state is
// call-local.  The provided `lt_many` callback itself must be safe to
// invoke from multiple threads; every Distribution in this repo
// qualifies (they are immutable after construction).
//
// Units: `t` is in the same unit as the random variable behind the
// transform — seconds everywhere in this repo.  `lt_many` must evaluate
// the Laplace(–Stieltjes) transform with `s` in reciprocal units (1/s).
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <span>

namespace cosm::numerics {

// A scalar transform s -> L(s) (core of numerics::LaplaceDistribution).
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
// Every inverted point bumps exactly one obs counter (inversion.converged
// / .truncated / .clamped / .nonfinite) so failed inversions are visible
// in any traced run, and hands the verdict to the caller.  See
// docs/OBSERVABILITY.md for the semantics.
enum class InversionQuality : std::uint8_t {
  kConverged,
  kTruncated,
  kClamped,
  kNonFinite,
};

// A CDF value with its quality verdict.  `value` is the raw Euler sum
// clamped to [0, 1]; a non-finite raw value propagates unchanged.
struct CdfPoint {
  double value = 0.0;
  InversionQuality quality = InversionQuality::kConverged;
};

// F and f at one t, read from the same contour values (the identity
// L[F](s) = L[f](s)/s).  `density` is the raw Euler sum (unclamped; near
// atoms and at the ~1e-8 error floor it can be slightly negative).
struct CdfDensityPoint {
  CdfPoint cdf;
  double density = 0.0;
};

// The one Euler inverter (Abate–Whitt 2006, 2m+1 terms on the vertical
// contour Re s = m ln(10) / (3t)): out[i] receives F(ts[i]), its verdict
// and f(ts[i]) of the distribution whose density transform `lt_many`
// evaluates.  Every t > 0 costs 2m+1 transform values, all of them
// gathered into ONE lt_many call; each bumps inversion.calls, one verdict
// counter and 2m+1 inversion.terms, and a call with any t > 0 opens the
// numerics.cdf_many span.  t <= 0 (or NaN) yields {0, kConverged} and
// density 0 without evaluating (our latencies are strictly positive away
// from atoms at zero, where inversion is ill-posed anyway).
// Preconditions: out.size() == ts.size(), 2 <= m <= 30 — m around 20 is
// the sweet spot in double precision (the binomial weights grow like
// 10^{m/3}; beyond ~m=25 cancellation dominates).  Violations throw
// std::invalid_argument.
void invert_cdf(const BatchLaplaceFn& lt_many, std::span<const double> ts,
                int m, std::span<CdfDensityPoint> out);

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

// ------------------------------ the contour ------------------------------
//
// The nodes invert_cdf evaluates, public so tests can exercise the
// transform kernels on the exact points inversion feeds them.

// Number of Euler contour nodes for term count m: 2m + 1.
int euler_terms(int m);
// Fills out[k] = (m ln10/3 + i·pi·k) / t for k in [0, 2m].  Preconditions:
// t > 0, 2 <= m <= 30, out.size() == euler_terms(m).
void euler_fill_nodes(double t, int m, std::span<std::complex<double>> out);

}  // namespace cosm::numerics
