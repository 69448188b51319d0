#include "l2/commodity_switch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "telemetry/trace.hpp"

namespace tsn::l2 {

CommoditySwitch::CommoditySwitch(sim::Scheduler& engine, std::string name,
                                 CommoditySwitchConfig config)
    : engine_(engine),
      name_(std::move(name)),
      config_(config),
      egress_(config.port_count, nullptr),
      router_port_(config.port_count, false),
      mroutes_(config.mroute_hardware_capacity) {
  TSN_ASSERT(config.port_count > 0, "a switch needs at least one port");
}

void CommoditySwitch::attach_port(net::PortId port, net::Link& egress) noexcept {
  if (port < egress_.size()) egress_[port] = &egress;
}

void CommoditySwitch::set_router_port(net::PortId port, bool is_router) {
  router_port_.at(port) = is_router;
}

void CommoditySwitch::add_route(net::Ipv4Addr prefix, std::uint8_t prefix_len,
                                net::PortId port) {
  TSN_ASSERT(prefix_len <= 32, "IPv4 prefix length cannot exceed 32 bits");
  const std::uint32_t mask =
      prefix_len == 0 ? 0 : ~std::uint32_t{0} << (32 - prefix_len);
  const std::uint32_t canonical = prefix.value() & mask;
  for (auto& route : routes_) {
    if (route.prefix == canonical && route.len == prefix_len) {
      if (std::find(route.ports.begin(), route.ports.end(), port) == route.ports.end()) {
        route.ports.push_back(port);
      }
      return;
    }
  }
  routes_.push_back(Route{canonical, prefix_len, {port}});
  std::sort(routes_.begin(), routes_.end(),
            [](const Route& a, const Route& b) { return a.len > b.len; });
}

void CommoditySwitch::bind_host(net::Ipv4Addr ip, net::MacAddr mac, net::PortId port) {
  add_route(ip, 32, port);
  host_macs_[ip] = mac;
}

void CommoditySwitch::join_group(net::Ipv4Addr group, net::PortId port) {
  mroutes_.join(group, port);
}

const CommoditySwitch::Route* CommoditySwitch::lookup_route(net::Ipv4Addr dst) const noexcept {
  for (const auto& route : routes_) {
    const std::uint32_t mask = route.len == 0 ? 0 : ~std::uint32_t{0} << (32 - route.len);
    if ((dst.value() & mask) == route.prefix) return &route;
  }
  return nullptr;
}

std::uint64_t CommoditySwitch::flow_hash(const net::DecodedFrame& frame) noexcept {
  // FNV-1a over the 5-tuple: stable per flow, so ECMP never reorders a flow.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  if (frame.ip) {
    mix(frame.ip->src.value());
    mix(frame.ip->dst.value());
    mix(frame.ip->protocol);
  }
  if (frame.udp) {
    mix(frame.udp->src_port);
    mix(frame.udp->dst_port);
  } else if (frame.tcp) {
    mix(frame.tcp->src_port);
    mix(frame.tcp->dst_port);
  }
  return h;
}

void CommoditySwitch::stall_port(net::PortId port, sim::Duration duration) {
  if (port >= egress_.size()) return;
  if (port_stalled_until_.empty()) {
    port_stalled_until_.assign(egress_.size(), sim::Time::zero());
  }
  const sim::Time until = engine_.now() + duration;
  if (until > port_stalled_until_[port]) port_stalled_until_[port] = until;
}

bool CommoditySwitch::port_stalled(net::PortId port) const noexcept {
  return port < port_stalled_until_.size() && port_stalled_until_[port] > engine_.now();
}

void CommoditySwitch::transmit_on(net::PortId port, const net::PacketPtr& packet) {
  if (port >= egress_.size() || egress_[port] == nullptr) return;
  if (port_stalled(port)) {
    // Held frames release at the stall's end; same-release-time events fire
    // in scheduling order, so the stalled stream stays in order.
    ++stats_.frames_stalled;
    auto self = this;
    engine_.schedule_at(port_stalled_until_[port],
                        [self, port, packet] { self->transmit_on(port, packet); });
    return;
  }
  egress_[port]->transmit(packet);
}

bool CommoditySwitch::schedule_receive(const net::PacketPtr& packet, net::PortId in_port,
                                       sim::Time arrival,
                                       [[maybe_unused]] sim::DomainId link_domain) {
  // A link into another shard hands frames to net/bridge.hpp instead.
  TSN_DCHECK(link_domain == engine_.domain_id(), "link and switch on different domains");
  // On the switch's own scheduler, not the link's: a facade over the engine
  // then charges the hop to the switch's owner.
  engine_.schedule_at(arrival + kSwitchForwardingLatency,
                      [this, packet, in_port, arrival] { forward(packet, in_port, arrival); });
  return true;
}

void CommoditySwitch::receive(const net::PacketPtr& packet, net::PortId in_port) {
  schedule_receive(packet, in_port, engine_.now(), engine_.domain_id());
}

// tsn-lint: hotpath
void CommoditySwitch::forward(const net::PacketPtr& packet, net::PortId in_port, sim::Time rx) {
  TSN_DCHECK(egress_.size() == config_.port_count && router_port_.size() == config_.port_count,
             "port tables must stay sized to the configured port count");
  if (!admin_up_) {
    ++stats_.admin_down_drops;
    return;
  }
  if (loss_override_ > 0.0 && fault_rng_.bernoulli(loss_override_)) {
    ++stats_.fault_loss_drops;
    return;
  }
  const net::DecodedFrame* frame = packet->decoded();
  if (frame == nullptr || !frame->ip) {
    ++stats_.no_route_drops;  // non-IP traffic is not carried on these fabrics
    return;
  }
  if (frame->ip->protocol == net::kIpProtoIgmp) {
    if (auto igmp = mcast::IgmpMessage::decode(frame->payload)) {
      handle_igmp(packet, *igmp, in_port, rx);
    }
    return;
  }
  if (frame->ip->dst.is_multicast()) {
    forward_multicast(packet, frame->ip->dst, in_port, rx);
  } else {
    forward_unicast(packet, *frame, in_port, rx);
  }
}

void CommoditySwitch::forward_unicast(const net::PacketPtr& packet,
                                      const net::DecodedFrame& frame, net::PortId in_port,
                                      sim::Time rx) {
  const Route* route = lookup_route(frame.ip->dst);
  if (route == nullptr || route->ports.empty()) {
    ++stats_.no_route_drops;
    return;
  }
  net::PortId out_port = route->ports.size() == 1
                             ? route->ports[0]
                             : route->ports[flow_hash(frame) % route->ports.size()];
  if (out_port == in_port) {
    ++stats_.no_route_drops;  // would hairpin; treat as routing misconfig
    return;
  }
  // Last-hop MAC rewrite for directly attached hosts, so NIC filters accept
  // the routed frame. The rewritten copy keeps the original id/timestamp —
  // it is the same frame on the wire.
  net::PacketPtr out = packet;
  if (auto it = host_macs_.find(frame.ip->dst);
      it != host_macs_.end() && frame.eth.dst != it->second) {
    rewrite_scratch_.assign(packet->frame().begin(), packet->frame().end());
    const auto& mac = it->second.octets();
    for (std::size_t i = 0; i < 6; ++i) rewrite_scratch_[i] = static_cast<std::byte>(mac[i]);
    out = factory_.remake(rewrite_scratch_, packet->created(), packet->id(), packet->trace());
  }
  ++stats_.unicast_forwarded;
  // Switch span: frame rx to egress hand-off; the route/mroute lookup and
  // pipeline latency are inside it.
  telemetry::record_span(out->trace(), name_, telemetry::SpanKind::kSwitch, rx, engine_.now());
  transmit_on(out_port, out);
}

void CommoditySwitch::forward_multicast(const net::PacketPtr& packet, net::Ipv4Addr group,
                                        net::PortId in_port, sim::Time rx) {
  // IGMP-snooping forwarding rule with split horizon: multicast arriving on
  // a non-router port is always pushed toward the router ports (the
  // multicast tree root), so sources reach subscribed subtrees; traffic
  // arriving *from* a router port only follows learned receiver ports.
  // This mirrors a PIM rendezvous-point tree and keeps leaf-spine fabrics
  // loop-free for multicast.
  const bool from_router = in_port < router_port_.size() && router_port_[in_port];
  // Final egress set: router-port pushes, then learned receiver ports.
  std::vector<net::PortId>& out = egress_scratch_;
  out.clear();
  if (!from_router) {
    for (net::PortId p = 0; p < router_port_.size(); ++p) {
      if (router_port_[p] && p != in_port) out.push_back(p);
    }
  }
  const auto entry = mroutes_.lookup(group);
  if (entry.ports != nullptr) {
    for (net::PortId p : *entry.ports) {
      if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
    }
  }
  if (out.empty()) {
    // No receivers and no router port: snooping drops the frame.
    ++stats_.no_group_drops;
    return;
  }
  const bool hardware = entry.ports == nullptr || entry.hardware;
  if (hardware) {
    ++stats_.multicast_hw_forwarded;
    fan_out(packet, in_port, rx);
    return;
  }
  // Software path: single-server queue with bounded depth. Queue depth is
  // derived from how far ahead the server is booked when the frame
  // arrived.
  const sim::Duration backlog =
      software_free_at_ > rx ? software_free_at_ - rx : sim::Duration::zero();
  const auto queued = static_cast<std::size_t>(backlog / kSoftwareServiceTime);
  if (queued >= kSoftwareQueuePackets) {
    ++stats_.software_queue_drops;
    return;
  }
  const sim::Time done = (software_free_at_ > rx ? software_free_at_ : rx) +
                         kSoftwareServiceTime;
  TSN_DCHECK(done >= engine_.now(), "software service completion cannot precede now");
  software_free_at_ = done;
  ++stats_.multicast_sw_forwarded;
  replicate(packet, in_port, done, rx);
}

void CommoditySwitch::fan_out(const net::PacketPtr& packet, net::PortId in_port, sim::Time rx) {
  // transmit_on only schedules, and so does the far device's
  // schedule_receive, so egress_scratch_ cannot change inside this loop.
  for (net::PortId port : egress_scratch_) {
    if (port == in_port) continue;
    ++stats_.replications;
    telemetry::record_span(packet->trace(), name_, telemetry::SpanKind::kSwitch, rx,
                           engine_.now());
    transmit_on(port, packet);
  }
}

void CommoditySwitch::replicate(const net::PacketPtr& packet, net::PortId in_port,
                                sim::Time done, sim::Time rx) {
  std::uint32_t fanout = 0;
  if (free_fanouts_.empty()) {
    fanout = static_cast<std::uint32_t>(fanouts_.size());
    fanouts_.emplace_back();
    free_fanouts_.reserve(fanouts_.size());  // so releasing never allocates
  } else {
    fanout = free_fanouts_.back();
    free_fanouts_.pop_back();
  }
  std::vector<net::PortId>& ports = fanouts_[fanout];
  for (net::PortId port : egress_scratch_) {
    if (port != in_port) ports.push_back(port);
  }
  if (ports.empty()) {
    free_fanouts_.push_back(fanout);
    return;
  }
  stats_.replications += ports.size();
  // One event for the whole fan-out. Per-port events scheduled here would
  // take consecutive sequence numbers at one instant, so nothing could fire
  // between them; doing their work in port order inside one event keeps
  // every delivery, span and random draw where it was.
  auto self = this;
  engine_.schedule_at(done,
                      [self, packet, fanout, rx] { self->fire_fanout(packet, fanout, rx); });
}

void CommoditySwitch::fire_fanout(const net::PacketPtr& packet, std::uint32_t fanout,
                                  sim::Time rx) {
  // transmit_on only schedules, so no fan-out is added while this one runs.
  for (net::PortId port : fanouts_[fanout]) {
    telemetry::record_span(packet->trace(), name_, telemetry::SpanKind::kSwitch, rx,
                           engine_.now());
    transmit_on(port, packet);
  }
  fanouts_[fanout].clear();
  free_fanouts_.push_back(fanout);
}

void CommoditySwitch::handle_igmp(const net::PacketPtr& packet,
                                  const mcast::IgmpMessage& message, net::PortId in_port,
                                  sim::Time rx) {
  ++stats_.igmp_processed;
  switch (message.type) {
    case mcast::IgmpType::kMembershipReport:
      mroutes_.join(message.group, in_port);
      last_report_[MembershipKey{message.group.value(), in_port}] = rx;
      break;
    case mcast::IgmpType::kLeaveGroup:
      mroutes_.leave(message.group, in_port);
      last_report_.erase(MembershipKey{message.group.value(), in_port});
      break;
    case mcast::IgmpType::kMembershipQuery:
      return;  // another querier's probe: nothing to program
  }
  // Relay the report toward router ports so upstream switches learn that
  // this subtree has receivers.
  egress_scratch_.clear();
  for (net::PortId p = 0; p < router_port_.size(); ++p) {
    if (router_port_[p] && p != in_port) egress_scratch_.push_back(p);
  }
  fan_out(packet, in_port, rx);
}

void CommoditySwitch::register_metrics(telemetry::Registry& registry,
                                       const std::string& prefix) const {
  const std::string base = prefix + "." + name_;
  registry.gauge(base + ".unicast_forwarded",
                 [this] { return static_cast<double>(stats_.unicast_forwarded); });
  registry.gauge(base + ".multicast_hw_forwarded",
                 [this] { return static_cast<double>(stats_.multicast_hw_forwarded); });
  registry.gauge(base + ".multicast_sw_forwarded",
                 [this] { return static_cast<double>(stats_.multicast_sw_forwarded); });
  registry.gauge(base + ".software_queue_drops",
                 [this] { return static_cast<double>(stats_.software_queue_drops); });
  registry.gauge(base + ".no_route_drops",
                 [this] { return static_cast<double>(stats_.no_route_drops); });
  registry.gauge(base + ".no_group_drops",
                 [this] { return static_cast<double>(stats_.no_group_drops); });
  registry.gauge(base + ".replications",
                 [this] { return static_cast<double>(stats_.replications); });
  registry.gauge(base + ".admin_down_drops",
                 [this] { return static_cast<double>(stats_.admin_down_drops); });
  registry.gauge(base + ".fault_loss_drops",
                 [this] { return static_cast<double>(stats_.fault_loss_drops); });
  registry.gauge(base + ".frames_stalled",
                 [this] { return static_cast<double>(stats_.frames_stalled); });
  // Current depth of the software forwarding queue (in service times).
  registry.gauge(base + ".software_queue_depth", [this] {
    const sim::Time now = engine_.now();
    if (software_free_at_ <= now) return 0.0;
    return static_cast<double>((software_free_at_ - now) / kSoftwareServiceTime);
  });
  mroutes_.register_metrics(registry, base + ".mroute");
}

void CommoditySwitch::start_querier() {
  if (querier_running_) return;
  if (config_.igmp_query_interval <= sim::Duration::zero() ||
      config_.membership_timeout <= sim::Duration::zero()) {
    throw std::invalid_argument{
        "start_querier requires positive igmp_query_interval and membership_timeout"};
  }
  querier_running_ = true;
  engine_.schedule_in(config_.igmp_query_interval, [this] { querier_tick(); });
}

void CommoditySwitch::querier_tick() {
  // 1. Send a General Query out of every attached host-facing port.
  const auto frame = mcast::build_igmp_frame(
      net::MacAddr::from_host_id(0xfffe), net::Ipv4Addr{10, 255, 255, 254},
      mcast::IgmpMessage{mcast::IgmpType::kMembershipQuery, net::Ipv4Addr{}});
  const auto packet = factory_.make(std::span<const std::byte>{frame}, engine_.now());
  for (net::PortId p = 0; p < egress_.size(); ++p) {
    if (egress_[p] != nullptr && !(p < router_port_.size() && router_port_[p])) {
      transmit_on(p, packet);
    }
  }
  // 2. Age out memberships that missed their refresh window.
  const sim::Time now = engine_.now();
  // Uniform age-out sweep: the surviving set and the eviction counters are
  // the same whatever order entries expire in.
  // tsn-lint: allow(unordered-iter) order-independent: uniform age-out sweep
  for (auto it = last_report_.begin(); it != last_report_.end();) {
    if (now - it->second > config_.membership_timeout) {
      mroutes_.leave(net::Ipv4Addr{it->first.group}, it->first.port);
      ++aged_out_;
      it = last_report_.erase(it);
    } else {
      ++it;
    }
  }
  engine_.schedule_in(config_.igmp_query_interval, [this] { querier_tick(); });
}

}  // namespace tsn::l2
