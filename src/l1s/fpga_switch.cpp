#include "l1s/fpga_switch.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/trace.hpp"

namespace tsn::l1s {

FpgaSwitch::FpgaSwitch(sim::Scheduler& engine, std::string name, FpgaSwitchConfig config)
    : engine_(engine),
      name_(std::move(name)),
      egress_(config.port_count, nullptr) {}

void FpgaSwitch::attach_port(net::PortId port, net::Link& egress) noexcept {
  if (port < egress_.size()) egress_[port] = &egress;
}

bool FpgaSwitch::join_group(net::Ipv4Addr group, net::PortId port) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    if (groups_.size() >= kFpgaGroupTableCapacity) return false;
    it = groups_.emplace(group, std::vector<net::PortId>{}).first;
  }
  if (std::find(it->second.begin(), it->second.end(), port) == it->second.end()) {
    it->second.push_back(port);
  }
  return true;
}

void FpgaSwitch::receive(const net::PacketPtr& packet, net::PortId in_port) {
  const net::DecodedFrame* frame = packet->decoded();
  // The FPGA fabric here is multicast-only (the quad networks of §4.3
  // carry feeds); anything else, or a frame on a port this switch does not
  // have, is dropped.
  if (in_port >= egress_.size() || frame == nullptr || !frame->ip ||
      !frame->ip->dst.is_multicast()) {
    ++stats_.no_group_drops;
    return;
  }
  const net::Ipv4Addr group = frame->ip->dst;
  const auto it = groups_.find(group);
  if (it == groups_.end()) {
    ++stats_.no_group_drops;
    return;
  }
  ++stats_.frames_forwarded;
  // The fixed pipeline latency §5 gives reconfigurable L1S hardware.
  constexpr sim::Duration kForwardingLatency = sim::nanos(std::int64_t{100});
  auto self = this;
  const sim::Time rx = engine_.now();
  for (net::PortId out : it->second) {
    if (out == in_port || out >= egress_.size() || egress_[out] == nullptr) continue;
    ++stats_.replications;
    net::Link* link = egress_[out];
    engine_.schedule_in(kForwardingLatency, [self, link, packet, rx] {
      telemetry::record_span(packet->trace(), self->name_, telemetry::SpanKind::kL1sFanout, rx,
                             self->engine_.now());
      link->transmit(packet);
    });
  }
}

}  // namespace tsn::l1s
