#include "net/stack.hpp"

#include <utility>

namespace tsn::net {

NetStack::NetStack(Nic& nic) : nic_(nic) {
  nic_.set_rx_handler([this](const PacketPtr& packet, sim::Time arrival) {
    on_frame(packet, arrival);
  });
}

void NetStack::bind_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

void NetStack::send_udp(MacAddr dst_mac, Ipv4Addr dst_ip, std::uint16_t src_port,
                        std::uint16_t dst_port, std::span<const std::byte> payload) {
  build_udp_frame_into(tx_scratch_, nic_.mac(), dst_mac, nic_.ip(), dst_ip, src_port, dst_port,
                       payload);
  nic_.send_frame(std::span<const std::byte>{tx_scratch_});
}

void NetStack::send_multicast(Ipv4Addr group, std::uint16_t port,
                              std::span<const std::byte> payload) {
  build_multicast_frame_into(tx_scratch_, nic_.mac(), nic_.ip(), group, port, payload);
  nic_.send_frame(std::span<const std::byte>{tx_scratch_});
}

TcpEndpoint& NetStack::connect_tcp(MacAddr dst_mac, Ipv4Addr dst_ip, std::uint16_t dst_port,
                                   std::uint16_t src_port) {
  if (src_port == 0) src_port = next_ephemeral_++;
  auto endpoint = std::make_unique<TcpEndpoint>(*this, dst_mac, dst_ip, dst_port, src_port);
  TcpEndpoint& ref = *endpoint;
  tcp_flows_.emplace(FlowKey{src_port, dst_ip.value(), dst_port}, std::move(endpoint));
  ref.start_connect();
  return ref;
}

void NetStack::listen_tcp(std::uint16_t port, AcceptHandler on_accept) {
  tcp_listeners_[port] = std::move(on_accept);
}

std::size_t NetStack::reap_closed() {
  std::size_t reaped = 0;
  for (auto it = tcp_flows_.begin(); it != tcp_flows_.end();) {
    if (it->second->state() == TcpState::kClosed) {
      it = tcp_flows_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  return reaped;
}

void NetStack::on_frame(const PacketPtr& packet, sim::Time arrival) {
  const DecodedFrame* frame = packet->decoded();
  if (frame == nullptr || !frame->ip) return;
  if (frame->udp) {
    auto it = udp_handlers_.find(frame->udp->dst_port);
    if (it == udp_handlers_.end()) return;
    it->second(*frame->ip, *frame->udp, frame->payload, arrival);
    return;
  }
  if (frame->tcp) {
    handle_tcp(*frame, arrival);
    return;
  }
  if (frame->ip->protocol == kIpProtoIgmp && igmp_handler_) {
    igmp_handler_(frame->payload, arrival);
  }
}

void NetStack::handle_tcp(const DecodedFrame& frame, sim::Time arrival) {
  const TcpHeader& tcp = *frame.tcp;
  const FlowKey key{tcp.dst_port, frame.ip->src.value(), tcp.src_port};
  auto it = tcp_flows_.find(key);
  if (it != tcp_flows_.end()) {
    it->second->on_segment(tcp, frame.payload, arrival);
    return;
  }
  // New flow: only a bare SYN to a listening port opens one.
  const bool bare_syn =
      (tcp.flags & TcpHeader::kSyn) != 0 && (tcp.flags & TcpHeader::kAck) == 0;
  if (!bare_syn) return;
  auto listener = tcp_listeners_.find(tcp.dst_port);
  if (listener == tcp_listeners_.end()) return;
  auto endpoint = std::make_unique<TcpEndpoint>(*this, frame.eth.src, frame.ip->src,
                                                tcp.src_port, tcp.dst_port);
  TcpEndpoint& ref = *endpoint;
  tcp_flows_.emplace(key, std::move(endpoint));
  ref.accept_syn(tcp.seq);
  listener->second(ref);
}

}  // namespace tsn::net
