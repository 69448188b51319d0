#include "net/nic.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "net/headers.hpp"
#include "telemetry/trace.hpp"

namespace tsn::net {

Nic::Nic(sim::Scheduler& engine, std::string name, MacAddr mac, Ipv4Addr ip)
    : engine_(engine), name_(std::move(name)), mac_(mac), ip_(ip) {}

void Nic::attach_port(PortId /*port*/, Link& egress) noexcept { egress_ = &egress; }

void Nic::subscribe_multicast_mac(MacAddr mac) {
  if (std::find(mcast_macs_.begin(), mcast_macs_.end(), mac) == mcast_macs_.end()) {
    mcast_macs_.push_back(mac);
  }
}

void Nic::unsubscribe_multicast_mac(MacAddr mac) {
  std::erase(mcast_macs_, mac);
}

void Nic::send(const PacketPtr& packet) {
  if (egress_ == nullptr) return;  // unplugged NIC: frame vanishes, as in life
  ++tx_frames_;
  egress_->transmit(packet);
}

PacketPtr Nic::send_frame(std::vector<std::byte> frame) {
  auto packet = factory_.make(std::move(frame), engine_.now());
  send(packet);
  return packet;
}

PacketPtr Nic::send_frame(std::span<const std::byte> frame) {
  auto packet = factory_.make(frame, engine_.now());
  send(packet);
  return packet;
}

void Nic::receive(const PacketPtr& packet, PortId port) {
  if (!schedule_receive(packet, port, engine_.now(), engine_.domain_id())) {
    deliver(packet, engine_.now());
  }
}

bool Nic::schedule_receive(const PacketPtr& packet, PortId /*port*/, sim::Time arrival,
                           [[maybe_unused]] sim::DomainId link_domain) {
  if (rx_delay_ == sim::Duration::zero()) return false;
  // A link into another shard hands frames to net/bridge.hpp instead.
  TSN_DCHECK(link_domain == engine_.domain_id(), "link and NIC on different domains");
  // On the NIC's own scheduler, not the link's: a facade over the engine
  // then charges the software hop to the NIC's owner.
  engine_.schedule_at(arrival + rx_delay_,
                      [this, packet, arrival] { deliver(packet, arrival); });
  return true;
}

// tsn-lint: hotpath
void Nic::deliver(const PacketPtr& packet, sim::Time arrival) {
  if (!promiscuous_) {
    const EthernetHeader* eth = packet->ethernet();
    const bool accept =
        eth != nullptr &&
        (eth->dst == mac_ || eth->dst.is_broadcast() ||
         std::find(mcast_macs_.begin(), mcast_macs_.end(), eth->dst) != mcast_macs_.end());
    if (!accept) {
      ++rx_filtered_;
      return;
    }
  }
  ++rx_frames_;
  if (!rx_handler_) return;
  // Auxiliary span (nested inside the host's software span): NIC arrival to
  // handler run. The handler executes inside the frame's trace scope so any
  // frames it sends — or work it defers — stay on the same trace.
  telemetry::record_span(packet->trace(), name_, telemetry::SpanKind::kNicRx, arrival,
                         arrival + rx_delay_);
  telemetry::TraceScope scope{packet->trace()};
  rx_handler_(packet, arrival);
}

Host::Host(sim::Scheduler& engine, std::string name, sim::Duration software_latency)
    : engine_(engine), name_(std::move(name)), software_latency_(software_latency) {}

Nic& Host::add_nic(std::string suffix, MacAddr mac, Ipv4Addr ip) {
  auto nic = std::make_unique<Nic>(engine_, name_ + "/" + std::move(suffix), mac, ip);
  nic->set_rx_delay(software_latency_);
  nics_.push_back(std::move(nic));
  return *nics_.back();
}

}  // namespace tsn::net
