#include "topo/quad_l1s.hpp"

#include <stdexcept>
#include <string>

namespace tsn::topo {

QuadL1Fabric::QuadL1Fabric(net::Fabric& fabric) : fabric_(fabric) {
  l1s::L1SwitchConfig sw_cfg;
  sw_cfg.port_count = kQuadPortsPerSwitch;
  static constexpr const char* kNames[4] = {"l1s-feeds", "l1s-normdist", "l1s-orderagg",
                                            "l1s-toexch"};
  for (std::size_t i = 0; i < 4; ++i) {
    switches_[i] =
        std::make_unique<l1s::Layer1Switch>(fabric_.engine(), kNames[i], sw_cfg);
  }
}

net::PortId QuadL1Fabric::attach(Stage stage, net::Nic& nic) {
  const auto index = static_cast<std::size_t>(stage);
  if (next_port_[index] >= kQuadPortsPerSwitch) {
    throw std::length_error{"L1S stage out of ports"};
  }
  const net::PortId port = next_port_[index]++;
  // Host-to-stage cables: 10 GbE with 30 ns of propagation.
  constexpr net::LinkConfig kLink{10'000'000'000, sim::nanos(std::int64_t{30}), 1 << 20, 0.0};
  fabric_.connect(*switches_[index], port, nic, 0, kLink);
  return port;
}

void QuadL1Fabric::patch(Stage stage, net::PortId in, net::PortId out) {
  switches_[static_cast<std::size_t>(stage)]->patch(in, out);
}

void QuadL1Fabric::patch_duplex(Stage stage, net::PortId a, net::PortId b) {
  patch(stage, a, b);
  patch(stage, b, a);
}

}  // namespace tsn::topo
