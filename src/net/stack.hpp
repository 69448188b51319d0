// Per-NIC protocol stack: demultiplexes received frames to UDP port
// bindings and TCP endpoints, and owns the lightweight TCP implementation
// (see tcp_lite.hpp). One NetStack installs itself as its NIC's rx handler.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "net/nic.hpp"
#include "net/tcp_lite.hpp"

namespace tsn::net {

class NetStack {
 public:
  using UdpHandler = std::function<void(const Ipv4Header& ip, const UdpHeader& udp,
                                        std::span<const std::byte> payload, sim::Time arrival)>;
  using AcceptHandler = std::function<void(TcpEndpoint& endpoint)>;
  // Raw IGMP payload (IP protocol 2); decoding is the subscriber's job so
  // the net layer stays independent of the mcast layer.
  using IgmpHandler = std::function<void(std::span<const std::byte> payload, sim::Time arrival)>;

  explicit NetStack(Nic& nic);

  // --- UDP ------------------------------------------------------------------
  void bind_udp(std::uint16_t port, UdpHandler handler);
  // Sends a UDP datagram. `dst_mac` is the next-hop MAC (the ToR's router
  // MAC for routed fabrics, or the RFC1112 mapping for multicast).
  void send_udp(MacAddr dst_mac, Ipv4Addr dst_ip, std::uint16_t src_port, std::uint16_t dst_port,
                std::span<const std::byte> payload);
  void send_multicast(Ipv4Addr group, std::uint16_t port, std::span<const std::byte> payload);

  // --- TCP ------------------------------------------------------------------
  // Active open. The returned endpoint is owned by the stack and lives until
  // closed and reaped.
  TcpEndpoint& connect_tcp(MacAddr dst_mac, Ipv4Addr dst_ip, std::uint16_t dst_port,
                           std::uint16_t src_port);
  // Passive open: `on_accept` fires once per new established connection.
  void listen_tcp(std::uint16_t port, AcceptHandler on_accept);
  // Destroys every flow whose endpoint reached kClosed, freeing its port.
  // Must be called from outside any endpoint callback (it deletes the
  // endpoints); returns the number of flows reaped.
  std::size_t reap_closed();
  [[nodiscard]] std::size_t tcp_flow_count() const noexcept { return tcp_flows_.size(); }

  // --- IGMP -----------------------------------------------------------------
  void set_igmp_handler(IgmpHandler handler) { igmp_handler_ = std::move(handler); }

  [[nodiscard]] Nic& nic() noexcept { return nic_; }
  [[nodiscard]] sim::Scheduler& engine() noexcept { return nic_.engine(); }

 private:
  friend class TcpEndpoint;

  struct FlowKey {
    std::uint16_t local_port = 0;
    std::uint32_t peer_ip = 0;
    std::uint16_t peer_port = 0;

    auto operator<=>(const FlowKey&) const = default;
  };

  void on_frame(const PacketPtr& packet, sim::Time arrival);
  void handle_tcp(const DecodedFrame& frame, sim::Time arrival);

  Nic& nic_;
  // Reused frame-build buffer: UDP/multicast sends stay allocation-free
  // once its capacity covers the largest frame sent.
  std::vector<std::byte> tx_scratch_;
  IgmpHandler igmp_handler_;
  std::map<std::uint16_t, UdpHandler> udp_handlers_;
  std::map<std::uint16_t, AcceptHandler> tcp_listeners_;
  std::map<FlowKey, std::unique_ptr<TcpEndpoint>> tcp_flows_;
  std::uint16_t next_ephemeral_ = 49152;
};

}  // namespace tsn::net
