#include "queueing/mg1.hpp"

#include <cmath>
#include <limits>

#include "numerics/transform_nodes.hpp"

#include "common/require.hpp"

namespace cosm::queueing {

using numerics::DistPtr;

MG1::MG1(double arrival_rate, DistPtr service)
    : arrival_rate_(arrival_rate), service_(std::move(service)) {
  COSM_REQUIRE(arrival_rate > 0, "M/G/1 arrival rate must be positive");
  COSM_REQUIRE(service_ != nullptr, "M/G/1 service distribution required");
  COSM_REQUIRE(std::isfinite(service_->mean()),
               "M/G/1 service mean must be finite");
}

double MG1::utilization() const { return arrival_rate_ * service_->mean(); }

void MG1::require_stable() const {
  COSM_REQUIRE(stable(),
               "M/G/1 queue is overloaded (rho >= 1); the model only covers "
               "the paper's 'normal status' regime");
}

double MG1::mean_waiting_time() const {
  require_stable();
  const double m2 = service_->second_moment();
  COSM_REQUIRE(std::isfinite(m2),
               "P-K mean needs a finite service second moment");
  return arrival_rate_ * m2 / (2.0 * (1.0 - utilization()));
}

double MG1::mean_sojourn_time() const {
  return mean_waiting_time() + service_->mean();
}

double MG1::idle_probability() const {
  require_stable();
  return 1.0 - utilization();
}

double MG1::mean_jobs() const { return arrival_rate_ * mean_sojourn_time(); }

DistPtr MG1::waiting_time() const {
  require_stable();
  const double rho = utilization();
  double mean = std::numeric_limits<double>::quiet_NaN();
  if (std::isfinite(service_->second_moment())) {
    mean = arrival_rate_ * service_->second_moment() /
           (2.0 * (1.0 - rho));
  }
  // A structured node rather than an opaque LaplaceDistribution lambda:
  // same formula, same arithmetic order (bit-identical transform values),
  // but the transform-tape compiler can see the parameters and flatten
  // through the service child.
  return std::make_shared<numerics::PKWaitingTime>(
      arrival_rate_, rho, service_, mean,
      std::numeric_limits<double>::quiet_NaN());
}

DistPtr MG1::sojourn_time() const {
  return numerics::convolve_dists({waiting_time(), service_});
}

}  // namespace cosm::queueing
