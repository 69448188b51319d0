// Design 2: cloud hosting with latency equalization (§4.2).
//
// The cloud provider manages the network and equalizes latency across
// tenants: whatever a tenant's physical distance from the cloud-hosted
// exchange, the provider pads the path so every tenant sees the same
// one-way delay (the fairness property of DBO/cloud-exchange proposals).
// The model exposes the two §4.2 pain points directly: (i) virtualization
// overhead puts the equalized latency far above colo latencies, and
// (ii) anything outside the region crosses a WAN link whose delay dwarfs
// everything else ("latency for communication beyond the cloud will be
// excessive").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "l2/commodity_switch.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"

namespace tsn::topo {

// One-way latency every tenant is equalized to (virtualization overhead
// included). Public-cloud fair-access proposals operate at this scale.
inline constexpr sim::Duration kCloudEqualizedLatency = sim::micros(std::int64_t{100});
// WAN delay to anything outside the region (e.g. an on-prem colo).
inline constexpr sim::Duration kCloudExternalWanLatency = sim::millis(std::int64_t{2});

class CloudRegion {
 public:
  explicit CloudRegion(net::Fabric& fabric);
  CloudRegion(const CloudRegion&) = delete;
  CloudRegion& operator=(const CloudRegion&) = delete;

  // Attaches a tenant NIC whose true physical proximity would give it
  // `native_latency`; the provider pads it up to the equalized value.
  // Throws if native exceeds the equalization target (it cannot be sped up).
  net::PortId attach_tenant(net::Nic& nic, sim::Duration native_latency);

  // Attaches an endpoint outside the region across the WAN.
  net::PortId attach_external(net::Nic& nic);

 private:
  net::PortId attach_with_latency(net::Nic& nic, sim::Duration latency);

  net::Fabric& fabric_;
  std::unique_ptr<l2::CommoditySwitch> core_;
  net::PortId next_port_ = 0;
};

}  // namespace tsn::topo
