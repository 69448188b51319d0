#include "net/addr.hpp"

#include <gtest/gtest.h>

namespace tsn::net {
namespace {

TEST(MacAddr, ToStringIsColonHex) {
  const MacAddr mac{{0x02, 0x00, 0xab, 0xcd, 0xef, 0x01}};
  EXPECT_EQ(mac.to_string(), "02:00:ab:cd:ef:01");
}

TEST(MacAddr, MulticastAndBroadcastBits) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddr::broadcast().is_multicast());
  EXPECT_TRUE((MacAddr{{0x01, 0x00, 0x5e, 0, 0, 1}}).is_multicast());
  EXPECT_FALSE((MacAddr{{0x02, 0, 0, 0, 0, 1}}).is_multicast());
  EXPECT_FALSE((MacAddr{{0x02, 0, 0, 0, 0, 1}}).is_broadcast());
}

TEST(MacAddr, FromHostIdIsUnicastAndUnique) {
  const MacAddr a = MacAddr::from_host_id(1);
  const MacAddr b = MacAddr::from_host_id(2);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.is_multicast());
  EXPECT_EQ(MacAddr::from_host_id(1), a);
}

TEST(Ipv4Addr, RoundTripsThroughString) {
  const Ipv4Addr addr{10, 1, 2, 3};
  EXPECT_EQ(addr.to_string(), "10.1.2.3");
  const auto parsed = Ipv4Addr::parse("10.1.2.3");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, addr);
}

TEST(Ipv4Addr, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse("").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10.1.2.x").has_value());
  EXPECT_FALSE(Ipv4Addr::parse("10..2.3").has_value());
}

TEST(Ipv4Addr, MulticastRange) {
  EXPECT_TRUE((Ipv4Addr{224, 0, 0, 1}).is_multicast());
  EXPECT_TRUE((Ipv4Addr{239, 255, 255, 255}).is_multicast());
  EXPECT_FALSE((Ipv4Addr{223, 255, 255, 255}).is_multicast());
  EXPECT_FALSE((Ipv4Addr{240, 0, 0, 0}).is_multicast());
  EXPECT_FALSE((Ipv4Addr{10, 0, 0, 1}).is_multicast());
}

TEST(Ipv4Addr, MulticastMacMapping) {
  // RFC 1112: low 23 bits under 01:00:5e.
  const MacAddr mac = multicast_mac(Ipv4Addr{239, 1, 2, 3});
  EXPECT_EQ(mac.to_string(), "01:00:5e:01:02:03");
  EXPECT_TRUE(mac.is_multicast());
  // The top 9 bits of the group are discarded: 239.129.2.3 maps the same
  // as 239.1.2.3 (the classic ambiguity).
  EXPECT_EQ(multicast_mac(Ipv4Addr{239, 129, 2, 3}), mac);
}

TEST(Ipv4Addr, OrderingIsNumeric) {
  EXPECT_LT(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2));
  EXPECT_LT(Ipv4Addr(10, 0, 0, 255), Ipv4Addr(10, 0, 1, 0));
}

}  // namespace
}  // namespace tsn::net
