#include "net/addr.hpp"

#include <cstdio>

namespace tsn::net {

std::string MacAddr::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", octets_[0], octets_[1],
                octets_[2], octets_[3], octets_[4], octets_[5]);
  return buf;
}

std::string Ipv4Addr::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value_ >> 24) & 0xff, (value_ >> 16) & 0xff,
                (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

std::optional<Ipv4Addr> Ipv4Addr::parse(std::string_view text) {
  std::uint32_t value = 0;
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') return std::nullopt;
    std::uint32_t octet = 0;
    std::size_t digits = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      octet = octet * 10 + static_cast<std::uint32_t>(text[pos] - '0');
      ++pos;
      if (++digits > 3 || octet > 255) return std::nullopt;
    }
    value = (value << 8) | octet;
  }
  if (pos != text.size()) return std::nullopt;
  return Ipv4Addr{value};
}

}  // namespace tsn::net
