// Distribution fitting for Section IV-A of the paper.
//
// The calibration pipeline benchmarks the storage device, records per-
// operation latencies, and fits candidate distributions (the paper tries
// Exponential, Degenerate, Normal, Gamma and finds Gamma best).  This
// module provides the MLE fitters, the Kolmogorov–Smirnov statistic used
// for model selection, and a `fit_best` driver that reproduces that
// selection (Fig. 5).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "numerics/distribution.hpp"

namespace cosm::numerics {

struct SampleStats {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // unbiased
  double min = 0.0;
  double max = 0.0;
  double mean_log = 0.0;      // mean of ln(x); NaN if any x <= 0
  double variance_log = 0.0;  // variance of ln(x)
};

SampleStats compute_stats(std::span<const double> samples);

// MLE fitters.  All require a non-empty sample of non-negative values.
Degenerate fit_degenerate(std::span<const double> samples);
Exponential fit_exponential(std::span<const double> samples);
// Gamma MLE: solves ln(k) - psi(k) = ln(mean) - mean(ln x) by Newton on the
// digamma equation, seeded with the Minka/moment estimate; falls back to
// moment matching when samples are (near-)constant.
Gamma fit_gamma(std::span<const double> samples);
TruncatedNormal fit_truncated_normal(std::span<const double> samples);

// One-sample Kolmogorov–Smirnov statistic sup_t |F_n(t) - F(t)| against an
// arbitrary CDF.  `sorted_samples` must be ascending.
double ks_statistic(std::span<const double> sorted_samples,
                    const Distribution& dist);

struct FitCandidate {
  std::string name;
  DistPtr dist;
  double ks = 0.0;
};

struct FitSelection {
  std::vector<FitCandidate> candidates;  // all fits, ascending KS
  // Convenience view of the winner (candidates.front()).
  const FitCandidate& best() const { return candidates.front(); }
};

// Fits the paper's four candidates, ranks them by KS statistic, and
// returns all of them, best first.  Candidates whose fitter throws (e.g.
// exponential on an all-zero sample) are skipped.  Requires a non-empty
// sample of non-negative values (std::invalid_argument otherwise).
FitSelection fit_best(std::span<const double> samples);

}  // namespace cosm::numerics
