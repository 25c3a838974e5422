// Erlang(k, rate): the sum of k exponentials, CV² = 1/k < 1.  It carries
// an exact Laplace transform (the Gamma kernel at integer shape) and is
// queueing::MM1K's sojourn-time law.
#pragma once

#include "numerics/distribution.hpp"

namespace cosm::numerics {

class Erlang final : public Distribution {
 public:
  Erlang(unsigned stages, double rate);

  std::string name() const override;
  std::complex<double> laplace(std::complex<double> s) const override;
  double mean() const override;
  double second_moment() const override;
  double third_moment() const override;
  double cdf(double t) const override;
  double sample(Rng& rng) const override;

  unsigned stages() const { return stages_; }
  double rate() const { return rate_; }

 private:
  unsigned stages_;
  double rate_;
};

}  // namespace cosm::numerics
