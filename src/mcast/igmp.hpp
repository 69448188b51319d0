// Minimal IGMPv2-style membership signaling.
//
// Hosts announce multicast membership in-band: a Membership Report joins a
// group, a Leave Group message leaves it. Switches snoop these messages
// (see tsn::l2::CommoditySwitch) to program their mroute tables, as real
// data-center switches do with IGMP snooping.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/addr.hpp"
#include "net/headers.hpp"

namespace tsn::mcast {

enum class IgmpType : std::uint8_t {
  kMembershipQuery = 0x11,
  kMembershipReport = 0x16,  // v2 report
  kLeaveGroup = 0x17,
};

// Destination of general queries (all-hosts).
inline constexpr net::Ipv4Addr kAllHostsGroup{224, 0, 0, 1};

struct IgmpMessage {
  IgmpType type = IgmpType::kMembershipReport;
  net::Ipv4Addr group;

  // Encodes the 8-byte IGMP payload (type, max-resp, checksum, group).
  [[nodiscard]] std::vector<std::byte> encode() const;
  [[nodiscard]] static std::optional<IgmpMessage> decode(std::span<const std::byte> payload);
};

// Builds a complete Ethernet frame carrying the IGMP message. Reports and
// leaves are addressed to the group itself (v2 convention; leaves really go
// to 224.0.0.2, but snooping switches accept either — we use the group so
// the snooper can attribute the message without deep inspection).
[[nodiscard]] std::vector<std::byte> build_igmp_frame(net::MacAddr src_mac, net::Ipv4Addr src_ip,
                                                      const IgmpMessage& message);

}  // namespace tsn::mcast
