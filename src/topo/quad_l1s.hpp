// Design 3: four Layer-1 switch networks (§4.3).
//
// One L1S fabric per communication stage: exchange feeds to normalizers,
// normalized feeds to strategies, strategies to gateways, and gateways to
// the exchange. Circuits deliver traffic in nanoseconds to arbitrary host
// sets; the price is interface proliferation — a strategy either dedicates
// a NIC per subscribed feed or accepts a merge, and merged feeds can
// exceed the output line rate under bursts (queueing or loss at the
// egress link). Reverse-direction circuits carry TCP responses; the L1S
// acts as a hub and host NIC MAC filters discard what isn't theirs.
#pragma once

#include <cstdint>
#include <memory>

#include "l1s/layer1_switch.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"

namespace tsn::topo {

enum class Stage : std::uint8_t {
  kFeeds = 0,       // exchange -> normalizers
  kNormDist = 1,    // normalizers -> strategies
  kOrderAgg = 2,    // strategies -> gateways
  kToExchange = 3,  // gateways -> exchange
};

// Ports on each stage's switch.
inline constexpr std::size_t kQuadPortsPerSwitch = 64;

class QuadL1Fabric {
 public:
  explicit QuadL1Fabric(net::Fabric& fabric);
  QuadL1Fabric(const QuadL1Fabric&) = delete;
  QuadL1Fabric& operator=(const QuadL1Fabric&) = delete;

  // Wires a NIC into one stage's switch; returns the port it occupies.
  net::PortId attach(Stage stage, net::Nic& nic);

  // Creates a one-way circuit within a stage.
  void patch(Stage stage, net::PortId in, net::PortId out);
  // Convenience: duplex circuit (both directions).
  void patch_duplex(Stage stage, net::PortId a, net::PortId b);

  [[nodiscard]] l1s::Layer1Switch& stage_switch(Stage stage) {
    return *switches_[static_cast<std::size_t>(stage)];
  }

 private:
  net::Fabric& fabric_;
  std::unique_ptr<l1s::Layer1Switch> switches_[4];
  net::PortId next_port_[4] = {0, 0, 0, 0};
};

}  // namespace tsn::topo
