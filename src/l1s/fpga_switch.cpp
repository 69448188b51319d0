#include "l1s/fpga_switch.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/trace.hpp"

namespace tsn::l1s {

FpgaSwitch::FpgaSwitch(sim::Scheduler& engine, std::string name, FpgaSwitchConfig config)
    : engine_(engine),
      name_(std::move(name)),
      config_(config),
      egress_(config.port_count, nullptr),
      ingress_filters_(config.port_count) {}

void FpgaSwitch::attach_port(net::PortId port, net::Link& egress) noexcept {
  if (port < egress_.size()) egress_[port] = &egress;
}

bool FpgaSwitch::join_group(net::Ipv4Addr group, net::PortId port) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    if (groups_.size() >= config_.group_table_capacity) return false;
    it = groups_.emplace(group, std::vector<net::PortId>{}).first;
  }
  if (std::find(it->second.begin(), it->second.end(), port) == it->second.end()) {
    it->second.push_back(port);
  }
  return true;
}

void FpgaSwitch::leave_group(net::Ipv4Addr group, net::PortId port) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  std::erase(it->second, port);
  if (it->second.empty()) groups_.erase(it);
}

void FpgaSwitch::add_ingress_filter(net::PortId port, net::Ipv4Addr first, net::Ipv4Addr last) {
  ingress_filters_.at(port).push_back(Range{first.value(), last.value()});
}

void FpgaSwitch::clear_ingress_filters(net::PortId port) { ingress_filters_.at(port).clear(); }

bool FpgaSwitch::passes_filter(net::PortId port, net::Ipv4Addr group) const noexcept {
  const auto& ranges = ingress_filters_[port];
  if (ranges.empty()) return true;
  return std::any_of(ranges.begin(), ranges.end(), [&](const Range& r) {
    return group.value() >= r.first && group.value() <= r.last;
  });
}

void FpgaSwitch::receive(const net::PacketPtr& packet, net::PortId in_port) {
  const net::DecodedFrame* frame = packet->decoded();
  if (frame == nullptr || !frame->ip || !frame->ip->dst.is_multicast()) {
    // The FPGA fabric here is multicast-only (the quad networks of §4.3
    // carry feeds); anything else is dropped.
    ++stats_.no_group_drops;
    return;
  }
  const net::Ipv4Addr group = frame->ip->dst;
  if (in_port >= ingress_filters_.size() || !passes_filter(in_port, group)) {
    ++stats_.frames_filtered;
    return;
  }
  const auto it = groups_.find(group);
  if (it == groups_.end()) {
    ++stats_.no_group_drops;
    return;
  }
  ++stats_.frames_forwarded;
  auto self = this;
  const sim::Time rx = engine_.now();
  for (net::PortId out : it->second) {
    if (out == in_port || out >= egress_.size() || egress_[out] == nullptr) continue;
    ++stats_.replications;
    net::Link* link = egress_[out];
    engine_.schedule_in(config_.forwarding_latency, [self, link, packet, rx] {
      telemetry::record_span(packet->trace(), self->name_, telemetry::SpanKind::kL1sFanout, rx,
                             self->engine_.now());
      link->transmit(packet);
    });
  }
}

}  // namespace tsn::l1s
