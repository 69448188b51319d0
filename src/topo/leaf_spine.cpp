#include "topo/leaf_spine.hpp"

#include <stdexcept>
#include <string>

namespace tsn::topo {

LeafSpineFabric::LeafSpineFabric(net::Fabric& fabric, LeafSpineConfig config)
    : fabric_(fabric), config_(config) {
  if (config_.spine_count == 0 || config_.leaf_count == 0) {
    throw std::invalid_argument{"need at least one spine and one leaf"};
  }
  if (config_.ports_per_leaf <= config_.spine_count) {
    throw std::invalid_argument{"leaves need host ports beyond their uplinks"};
  }
  auto leaf_cfg = config_.leaf_switch;
  leaf_cfg.port_count = config_.ports_per_leaf;
  auto spine_cfg = config_.spine_switch;
  spine_cfg.port_count = config_.leaf_count;

  for (std::size_t l = 0; l < config_.leaf_count; ++l) {
    leaves_.push_back(std::make_unique<l2::CommoditySwitch>(
        fabric_.engine(), "leaf" + std::to_string(l), leaf_cfg));
  }
  for (std::size_t s = 0; s < config_.spine_count; ++s) {
    spines_.push_back(std::make_unique<l2::CommoditySwitch>(
        fabric_.engine(), "spine" + std::to_string(s), spine_cfg));
  }
  next_leaf_port_.assign(config_.leaf_count, static_cast<net::PortId>(config_.spine_count));

  // Wire leaf l port s <-> spine s port l: 100 GbE uplinks, 150 ns of
  // propagation, 4 MiB egress buffers.
  constexpr net::LinkConfig kFabricLink{100'000'000'000, sim::nanos(std::int64_t{150}), 4 << 20,
                                        0.0};
  for (std::size_t l = 0; l < config_.leaf_count; ++l) {
    for (std::size_t s = 0; s < config_.spine_count; ++s) {
      fabric_.connect(*leaves_[l], static_cast<net::PortId>(s), *spines_[s],
                      static_cast<net::PortId>(l), kFabricLink);
    }
    // Spine 0 is the multicast rendezvous root: joins and source traffic
    // from hosts are pushed toward it.
    leaves_[l]->set_router_port(0, true);
  }

  // Routes: each leaf ECMPs every remote rack across all spines; each
  // spine knows which leaf owns each rack subnet. (This is what BGP would
  // compute; the builder stands in for the control plane.)
  for (std::size_t l = 0; l < config_.leaf_count; ++l) {
    for (std::size_t r = 0; r < config_.leaf_count; ++r) {
      if (r == l) continue;
      const net::Ipv4Addr subnet{10, static_cast<std::uint8_t>(r), 0, 0};
      for (std::size_t s = 0; s < config_.spine_count; ++s) {
        leaves_[l]->add_route(subnet, 16, static_cast<net::PortId>(s));
      }
    }
  }
  for (std::size_t s = 0; s < config_.spine_count; ++s) {
    for (std::size_t r = 0; r < config_.leaf_count; ++r) {
      spines_[s]->add_route(net::Ipv4Addr{10, static_cast<std::uint8_t>(r), 0, 0}, 16,
                            static_cast<net::PortId>(r));
    }
  }
}

net::Ipv4Addr LeafSpineFabric::host_ip(std::size_t rack, std::size_t index) {
  if (rack > 255 || index >= 250 * 250) throw std::out_of_range{"rack/index out of range"};
  return net::Ipv4Addr{10, static_cast<std::uint8_t>(rack),
                       static_cast<std::uint8_t>(index / 250),
                       static_cast<std::uint8_t>(index % 250 + 1)};
}

void LeafSpineFabric::attach_host(std::size_t rack, net::Nic& nic) {
  if (rack >= leaves_.size()) throw std::out_of_range{"no such rack"};
  net::PortId& next = next_leaf_port_[rack];
  if (next >= config_.ports_per_leaf) throw std::length_error{"rack is full"};
  const net::PortId port = next++;
  fabric_.connect(*leaves_[rack], port, nic, 0, config_.host_link);
  leaves_[rack]->bind_host(nic.ip(), nic.mac(), port);
}

}  // namespace tsn::topo
