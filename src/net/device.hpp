// The device abstraction every simulated box implements: hosts' NICs,
// commodity switches, Layer-1 switches, taps, and exchange access ports.
#pragma once

#include <cstdint>
#include <string_view>

#include "net/packet.hpp"

namespace tsn::net {

using PortId = std::uint32_t;

class Link;

class Device {
 public:
  virtual ~Device() = default;

  // Called by the attached Link when a frame finishes arriving on `port`.
  virtual void receive(const PacketPtr& packet, PortId port) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

// Devices with attachable egress ports (switches, NICs) implement this so
// that wiring helpers can connect cables generically.
class PortedDevice : public Device {
 public:
  virtual void attach_port(PortId port, Link& egress) noexcept = 0;
};

// Fault-injection control surface (driven by fault::FaultInjector). Links
// and switches implement it so scripted failure drills can flip
// availability and loss rates by name, without reaching into entity state.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  // Administrative availability. While down the entity drops everything it
  // is handed — a pulled cable, a faded microwave path, a dead linecard.
  virtual void set_admin_up(bool up) noexcept = 0;

  // Dynamic loss override: replaces the configured loss probability until
  // cleared. Negative values clear the override.
  virtual void set_loss_override(double probability) noexcept = 0;
};

}  // namespace tsn::net
