// Wire-accurate Ethernet II, IPv4, UDP and TCP header codecs.
//
// Frames in the simulator are real byte buffers: every hop that claims to
// parse or rewrite headers does so against these encodings, and all size
// accounting (the paper's Table 1 and §5 header-overhead discussion) is
// grounded in the actual encoded lengths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/addr.hpp"
#include "net/wire.hpp"

namespace tsn::net {

inline constexpr std::size_t kEthernetHeaderSize = 14;
inline constexpr std::size_t kEthernetFcsSize = 4;
inline constexpr std::size_t kIpv4HeaderSize = 20;  // no options
inline constexpr std::size_t kUdpHeaderSize = 8;
inline constexpr std::size_t kTcpHeaderSize = 20;  // no options
// Largest datagram payload the packers fill (exchange feed units, normalized
// partitions, replication records): with the IP and UDP headers the frame
// stays within a 1500-byte Ethernet payload, with margin.
inline constexpr std::size_t kMaxDatagramPayload = 1458;
// Minimum Ethernet frame (header + payload + FCS).
inline constexpr std::size_t kMinEthernetFrame = 64;

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kIpProtoUdp = 17;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoIgmp = 2;

struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = kEtherTypeIpv4;

  void encode(WireWriter& w) const;
  [[nodiscard]] static std::optional<EthernetHeader> decode(WireReader& r);
};

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // header + payload
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  std::uint16_t checksum = 0;  // filled in by encode()
  Ipv4Addr src;
  Ipv4Addr dst;

  // Encodes with a correct header checksum (computed, not trusted).
  void encode(WireWriter& w) const;
  // Decodes and verifies the checksum; returns nullopt on corruption.
  [[nodiscard]] static std::optional<Ipv4Header> decode(WireReader& r);
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload

  void encode(WireWriter& w) const;
  [[nodiscard]] static std::optional<UdpHeader> decode(WireReader& r);
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;  // FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08 ACK=0x10
  std::uint16_t window = 65535;

  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;

  void encode(WireWriter& w) const;
  [[nodiscard]] static std::optional<TcpHeader> decode(WireReader& r);
};

// RFC 1071 internet checksum over a byte range.
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::byte> data) noexcept;

// A decoded view into one Ethernet frame. `payload` aliases the original
// buffer (L4 payload for UDP/TCP frames, L3 payload otherwise).
struct DecodedFrame {
  EthernetHeader eth;
  std::optional<Ipv4Header> ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::span<const std::byte> payload;

  [[nodiscard]] bool is_udp() const noexcept { return udp.has_value(); }
  [[nodiscard]] bool is_tcp() const noexcept { return tcp.has_value(); }
};

// Parses a full frame (without FCS validation — the FCS bytes, if present,
// are the last four and are excluded from `payload` by the length fields).
[[nodiscard]] std::optional<DecodedFrame> decode_frame(std::span<const std::byte> frame);

// Frame builders. The result includes Ethernet header, IP/L4 headers,
// payload, minimum-size padding, and a 4-byte FCS placeholder, so
// `result.size()` is the on-the-wire frame length that Table 1 measures.
[[nodiscard]] std::vector<std::byte> build_udp_frame(MacAddr src_mac, MacAddr dst_mac,
                                                     Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                                     std::uint16_t src_port,
                                                     std::uint16_t dst_port,
                                                     std::span<const std::byte> payload);

// Builds into a caller-owned scratch buffer (cleared, capacity reused), so
// per-frame senders on the hot path allocate nothing once warm.
void build_udp_frame_into(std::vector<std::byte>& frame, MacAddr src_mac, MacAddr dst_mac,
                          Ipv4Addr src_ip, Ipv4Addr dst_ip, std::uint16_t src_port,
                          std::uint16_t dst_port, std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> build_tcp_frame(MacAddr src_mac, MacAddr dst_mac,
                                                     Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                                     const TcpHeader& tcp,
                                                     std::span<const std::byte> payload);

// Multicast UDP frame addressed to `group` with the RFC 1112 MAC mapping.
[[nodiscard]] std::vector<std::byte> build_multicast_frame(MacAddr src_mac, Ipv4Addr src_ip,
                                                           Ipv4Addr group, std::uint16_t dst_port,
                                                           std::span<const std::byte> payload);

void build_multicast_frame_into(std::vector<std::byte>& frame, MacAddr src_mac, Ipv4Addr src_ip,
                                Ipv4Addr group, std::uint16_t dst_port,
                                std::span<const std::byte> payload);

}  // namespace tsn::net
