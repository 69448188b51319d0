#include "mcast/igmp.hpp"

#include "net/wire.hpp"

namespace tsn::mcast {

std::vector<std::byte> IgmpMessage::encode() const {
  std::vector<std::byte> out;
  out.reserve(8);
  net::WireWriter w{out};
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // max response time (unused for reports/leaves)
  w.u16(0);  // checksum placeholder
  w.u32(group.value());
  const std::uint16_t sum = net::internet_checksum(out);
  w.patch_u16(2, sum);
  return out;
}

std::optional<IgmpMessage> IgmpMessage::decode(std::span<const std::byte> payload) {
  if (payload.size() < 8) return std::nullopt;
  if (net::internet_checksum(payload.subspan(0, 8)) != 0) return std::nullopt;
  net::WireReader r{payload};
  IgmpMessage m;
  const std::uint8_t type = r.u8();
  r.skip(3);
  m.group = net::Ipv4Addr{r.u32()};
  if (!r.ok()) return std::nullopt;
  switch (type) {
    case 0x11:
      m.type = IgmpType::kMembershipQuery;
      break;
    case 0x16:
      m.type = IgmpType::kMembershipReport;
      break;
    case 0x17:
      m.type = IgmpType::kLeaveGroup;
      break;
    default:
      return std::nullopt;
  }
  return m;
}

std::vector<std::byte> build_igmp_frame(net::MacAddr src_mac, net::Ipv4Addr src_ip,
                                        const IgmpMessage& message) {
  const auto payload = message.encode();
  // General queries (group 0) go to the all-hosts group.
  const net::Ipv4Addr dst =
      message.group.is_multicast() ? message.group : kAllHostsGroup;
  std::vector<std::byte> frame;
  frame.reserve(net::kEthernetHeaderSize + net::kIpv4HeaderSize + payload.size() +
                net::kEthernetFcsSize);
  net::WireWriter w{frame};
  net::EthernetHeader{net::multicast_mac(dst), src_mac, net::kEtherTypeIpv4}.encode(w);
  net::Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(net::kIpv4HeaderSize + payload.size());
  ip.ttl = 1;
  ip.protocol = net::kIpProtoIgmp;
  ip.src = src_ip;
  ip.dst = dst;
  ip.encode(w);
  w.bytes(payload);
  if (frame.size() + net::kEthernetFcsSize < net::kMinEthernetFrame) {
    frame.resize(net::kMinEthernetFrame - net::kEthernetFcsSize, std::byte{0});
  }
  frame.insert(frame.end(), net::kEthernetFcsSize, std::byte{0});
  return frame;
}

}  // namespace tsn::mcast
