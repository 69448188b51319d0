// Design 1: leaf-spine fabric of commodity switches (§4.1).
//
// Every rack has a ToR (leaf); a spine layer connects the leaves; one
// dedicated leaf connects to the exchange so every host is equidistant
// from it (and gets a natural policy enforcement point). Unicast routes
// ECMP across all spines ("a standard Layer-3 protocol"); multicast uses
// IGMP snooping with spine 0 acting as the rendezvous root, so the
// multicast tree is loop-free. A round trip through four functions placed
// in different racks crosses 12 switch hops, the paper's headline count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "l2/commodity_switch.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"

namespace tsn::topo {

struct LeafSpineConfig {
  std::size_t spine_count = 4;
  std::size_t leaf_count = 26;
  std::size_t ports_per_leaf = 48;  // uplinks + hosts
  // Per-tier switch settings. Design runs use the defaults.
  // tsn-lint: allow(unset-option) a Deploy test runs IGMP queriers across the fabric
  l2::CommoditySwitchConfig leaf_switch;
  // tsn-lint: allow(unset-option) a Deploy test runs IGMP queriers across the fabric
  l2::CommoditySwitchConfig spine_switch;
  // tsn-lint: allow(unset-option) read by perfbench, which changes only with the benchmark
  net::LinkConfig host_link{10'000'000'000, sim::nanos(std::int64_t{50}), 1 << 20, 0.0};
};

class LeafSpineFabric {
 public:
  LeafSpineFabric(net::Fabric& fabric, LeafSpineConfig config);
  LeafSpineFabric(const LeafSpineFabric&) = delete;
  LeafSpineFabric& operator=(const LeafSpineFabric&) = delete;

  // Connects a NIC to the given rack's leaf; programs the /32 host route
  // everywhere it is needed. The NIC's IP must come from host_ip(rack, i).
  void attach_host(std::size_t rack, net::Nic& nic);

  // Deterministic addressing: rack r, host index i -> 10.(r).(i/250).(i%250+1).
  [[nodiscard]] static net::Ipv4Addr host_ip(std::size_t rack, std::size_t index);

  [[nodiscard]] l2::CommoditySwitch& leaf(std::size_t i) { return *leaves_.at(i); }
  [[nodiscard]] l2::CommoditySwitch& spine(std::size_t i) { return *spines_.at(i); }
  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaves_.size(); }
  [[nodiscard]] std::size_t spine_count() const noexcept { return spines_.size(); }
  [[nodiscard]] const LeafSpineConfig& config() const noexcept { return config_; }

 private:
  net::Fabric& fabric_;
  LeafSpineConfig config_;
  std::vector<std::unique_ptr<l2::CommoditySwitch>> leaves_;
  std::vector<std::unique_ptr<l2::CommoditySwitch>> spines_;
  std::vector<net::PortId> next_leaf_port_;
};

}  // namespace tsn::topo
