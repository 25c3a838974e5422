#include "core/frontend_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "core/errors.hpp"
#include "queueing/mg1.hpp"

namespace cosm::core {

FrontendModel::FrontendModel(FrontendParams params)
    : params_(std::move(params)) {
  params_.validate();
  if (params_.groups.empty()) {
    const queueing::MG1 queue(per_process_rate(), params_.frontend_parse);
    if (!queue.stable()) {
      throw OverloadError(
          "frontend tier is overloaded (parse utilization >= 1)");
    }
    sojourn_ = queue.sojourn_time();
    return;
  }
  // Heterogeneous tier (Sec. III-C): solve each homogeneous group's M/G/1
  // separately and mix the sojourn distributions by traffic share.
  std::vector<numerics::Mixture::Component> components;
  components.reserve(params_.groups.size());
  for (const auto& group : params_.groups) {
    if (group.traffic_share == 0.0) continue;
    const double group_rate = params_.arrival_rate * group.traffic_share /
                              static_cast<double>(group.processes);
    const queueing::MG1 queue(group_rate, group.frontend_parse);
    if (!queue.stable()) {
      throw OverloadError(
          "a frontend group is overloaded (parse utilization >= 1)");
    }
    components.push_back({group.traffic_share, queue.sojourn_time()});
  }
  sojourn_ = std::make_shared<numerics::Mixture>(std::move(components));
}

double FrontendModel::per_process_rate() const {
  COSM_REQUIRE(params_.groups.empty(),
               "per_process_rate is only defined for homogeneous tiers");
  return params_.arrival_rate / static_cast<double>(params_.processes);
}

double FrontendModel::utilization() const {
  if (params_.groups.empty()) {
    return per_process_rate() * params_.frontend_parse->mean();
  }
  // The busiest group bounds the tier.
  double worst = 0.0;
  for (const auto& group : params_.groups) {
    const double group_rate = params_.arrival_rate * group.traffic_share /
                              static_cast<double>(group.processes);
    worst = std::max(worst, group_rate * group.frontend_parse->mean());
  }
  return worst;
}

}  // namespace cosm::core
