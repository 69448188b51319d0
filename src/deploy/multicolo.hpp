// Multi-colo deployment (§2): the exchange lives in one co-location
// facility, the trading firm's stack in another, tens of miles away. The
// feed and order paths cross a private WAN circuit — fiber or microwave —
// so the deployment exposes exactly the trade the paper describes: the
// microwave path is hundreds of microseconds faster but rain-faded and
// thin; the fiber path is slower but clean.
#pragma once

#include <memory>

#include "deploy/reference.hpp"
#include "l2/commodity_switch.hpp"
#include "wan/metro.hpp"

namespace tsn::deploy {

struct MultiColoConfig {
  DeploymentConfig apps;
  wan::LinkTech wan_tech = wan::LinkTech::kMicrowave;
  bool raining = false;
};

class MultiColoDeployment final : public Deployment {
 public:
  explicit MultiColoDeployment(MultiColoConfig config);

  // One-way WAN propagation for the configured technology.
  [[nodiscard]] sim::Duration wan_delay() const noexcept;

 private:
  MultiColoConfig colo_config_;
  std::unique_ptr<l2::CommoditySwitch> exchange_switch_;
  std::unique_ptr<l2::CommoditySwitch> firm_switch_;
};

}  // namespace tsn::deploy
