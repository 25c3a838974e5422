#include "stats/sla.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace cosm::stats {

SlaCounter::SlaCounter(std::vector<double> slas, double interval_length)
    : slas_(std::move(slas)), interval_length_(interval_length) {
  COSM_REQUIRE(!slas_.empty(), "at least one SLA threshold required");
  for (const double s : slas_) {
    COSM_REQUIRE(s > 0, "SLA thresholds must be positive");
  }
  COSM_REQUIRE(interval_length > 0, "interval length must be positive");
}

void SlaCounter::record(double completion_time, double latency) {
  COSM_REQUIRE(completion_time >= 0, "completion time must be non-negative");
  const auto interval =
      static_cast<std::size_t>(completion_time / interval_length_);
  if (interval >= met_.size()) {
    met_.resize(interval + 1,
                std::vector<std::uint64_t>(slas_.size(), 0));
    totals_.resize(interval + 1, 0);
  }
  ++totals_[interval];
  ++total_requests_;
  for (std::size_t i = 0; i < slas_.size(); ++i) {
    if (latency <= slas_[i]) ++met_[interval][i];
  }
}

double SlaCounter::fraction_met(std::size_t sla_index,
                                std::size_t interval) const {
  COSM_REQUIRE(sla_index < slas_.size(), "SLA index out of range");
  COSM_REQUIRE(interval < met_.size(), "interval out of range");
  if (totals_[interval] == 0) return 0.0;
  return static_cast<double>(met_[interval][sla_index]) /
         static_cast<double>(totals_[interval]);
}

double SlaCounter::fraction_met_over(std::size_t sla_index,
                                     std::size_t first,
                                     std::size_t last) const {
  COSM_REQUIRE(sla_index < slas_.size(), "SLA index out of range");
  COSM_REQUIRE(first <= last && last <= met_.size(),
               "interval range out of bounds");
  std::uint64_t met = 0;
  std::uint64_t total = 0;
  for (std::size_t j = first; j < last; ++j) {
    met += met_[j][sla_index];
    total += totals_[j];
  }
  return total == 0 ? 0.0
                    : static_cast<double>(met) / static_cast<double>(total);
}

void PredictionErrorSummary::add(double predicted, double observed) {
  COSM_REQUIRE(predicted >= -1e-9 && predicted <= 1.0 + 1e-9,
               "predicted percentile must be in [0, 1]");
  COSM_REQUIRE(observed >= -1e-9 && observed <= 1.0 + 1e-9,
               "observed percentile must be in [0, 1]");
  errors_.push_back(predicted - observed);
}

double PredictionErrorSummary::mean_abs_error() const {
  COSM_REQUIRE(!errors_.empty(), "no prediction errors recorded");
  double sum = 0.0;
  for (const double e : errors_) sum += std::abs(e);
  return sum / static_cast<double>(errors_.size());
}

double PredictionErrorSummary::best_case() const {
  COSM_REQUIRE(!errors_.empty(), "no prediction errors recorded");
  double best = std::abs(errors_.front());
  for (const double e : errors_) best = std::min(best, std::abs(e));
  return best;
}

double PredictionErrorSummary::worst_case() const {
  COSM_REQUIRE(!errors_.empty(), "no prediction errors recorded");
  double worst = 0.0;
  for (const double e : errors_) worst = std::max(worst, std::abs(e));
  return worst;
}

}  // namespace cosm::stats
