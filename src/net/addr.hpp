// Link-layer and network-layer address types.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tsn::net {

// 48-bit Ethernet MAC address.
class MacAddr {
 public:
  constexpr MacAddr() noexcept = default;
  constexpr explicit MacAddr(std::array<std::uint8_t, 6> octets) noexcept : octets_(octets) {}

  [[nodiscard]] constexpr const std::array<std::uint8_t, 6>& octets() const noexcept {
    return octets_;
  }

  // Least-significant bit of the first octet set => group (multicast) address.
  [[nodiscard]] constexpr bool is_multicast() const noexcept { return (octets_[0] & 0x01) != 0; }
  [[nodiscard]] constexpr bool is_broadcast() const noexcept {
    for (auto o : octets_) {
      if (o != 0xff) return false;
    }
    return true;
  }

  [[nodiscard]] static constexpr MacAddr broadcast() noexcept {
    return MacAddr{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
  }

  // Locally-administered unicast address derived from a small integer id;
  // used when wiring up simulated hosts.
  [[nodiscard]] static constexpr MacAddr from_host_id(std::uint32_t id) noexcept {
    return MacAddr{{0x02, 0x00, static_cast<std::uint8_t>(id >> 24),
                    static_cast<std::uint8_t>(id >> 16), static_cast<std::uint8_t>(id >> 8),
                    static_cast<std::uint8_t>(id)}};
  }

  [[nodiscard]] std::string to_string() const;

  constexpr auto operator<=>(const MacAddr&) const noexcept = default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

// IPv4 address stored in host byte order.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() noexcept = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) noexcept : value_(value) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) noexcept
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) |
               std::uint32_t{d}) {}

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }

  // 224.0.0.0/4.
  [[nodiscard]] constexpr bool is_multicast() const noexcept {
    return (value_ & 0xf0000000u) == 0xe0000000u;
  }

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Ipv4Addr> parse(std::string_view text);

  constexpr auto operator<=>(const Ipv4Addr&) const noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

// RFC 1112 mapping from an IPv4 multicast group to its Ethernet MAC: the
// low 23 bits of the group address under the 01:00:5e prefix.
[[nodiscard]] constexpr MacAddr multicast_mac(Ipv4Addr group) noexcept {
  const std::uint32_t low23 = group.value() & 0x007fffffu;
  return MacAddr{{0x01, 0x00, 0x5e, static_cast<std::uint8_t>(low23 >> 16),
                  static_cast<std::uint8_t>(low23 >> 8), static_cast<std::uint8_t>(low23)}};
}

}  // namespace tsn::net

template <>
struct std::hash<tsn::net::Ipv4Addr> {
  std::size_t operator()(const tsn::net::Ipv4Addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
