#include "topo/cloud.hpp"

#include <stdexcept>

namespace tsn::topo {

namespace {

constexpr std::size_t kPortCount = 128;
constexpr std::uint64_t kTenantRateBps = 10'000'000'000;

}  // namespace

CloudRegion::CloudRegion(net::Fabric& fabric) : fabric_(fabric) {
  l2::CommoditySwitchConfig core_cfg;  // provider-managed, big tables
  core_cfg.port_count = kPortCount;
  // Provider-managed fabric: plenty of multicast capacity (the provider
  // implements feed distribution as a managed service).
  core_cfg.mroute_hardware_capacity = 4096;
  core_ = std::make_unique<l2::CommoditySwitch>(fabric_.engine(), "cloud-core", core_cfg);
}

net::PortId CloudRegion::attach_with_latency(net::Nic& nic, sim::Duration latency) {
  if (next_port_ >= kPortCount) throw std::length_error{"cloud region full"};
  const net::PortId port = next_port_++;
  net::LinkConfig link;
  link.rate_bps = kTenantRateBps;
  link.propagation = latency;
  link.queue_capacity_bytes = 4 << 20;
  fabric_.connect(*core_, port, nic, 0, link);
  core_->bind_host(nic.ip(), nic.mac(), port);
  return port;
}

net::PortId CloudRegion::attach_tenant(net::Nic& nic, sim::Duration native_latency) {
  if (native_latency > kCloudEqualizedLatency) {
    throw std::invalid_argument{
        "tenant's native latency exceeds the equalization target; the provider "
        "can add delay but not remove it"};
  }
  // The provider pads every path to the same value — virtual equalization.
  return attach_with_latency(nic, kCloudEqualizedLatency);
}

net::PortId CloudRegion::attach_external(net::Nic& nic) {
  return attach_with_latency(nic, kCloudExternalWanLatency);
}

}  // namespace tsn::topo
