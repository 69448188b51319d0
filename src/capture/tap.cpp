#include "capture/tap.hpp"

#include <utility>

namespace tsn::capture {

Tap::Tap(sim::Scheduler& engine, std::string name, CaptureClock clock)
    : engine_(engine), name_(std::move(name)), clock_(clock) {}

void Tap::attach_port(net::PortId port, net::Link& egress) noexcept {
  if (port < 2) egress_[port] = &egress;
}

void Tap::receive(const net::PacketPtr& packet, net::PortId port) {
  if (port >= 2) return;
  ++frames_tapped_;
  bytes_tapped_ += packet->size_bytes();
  if (packet_hook_) packet_hook_(packet, port, clock_.stamp(engine_.now()));
  // Pass-through: a splitter adds no forwarding latency. Port 0 traffic
  // continues out of port 1's egress and vice versa.
  net::Link* out = egress_[port ^ 1];
  if (out != nullptr) out->transmit(packet);
}

}  // namespace tsn::capture
