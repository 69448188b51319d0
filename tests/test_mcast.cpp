#include <gtest/gtest.h>

#include "mcast/group.hpp"
#include "mcast/igmp.hpp"
#include "mcast/mroute.hpp"

namespace tsn::mcast {
namespace {

TEST(GroupAllocator, AllocatesConsecutiveBlocks) {
  GroupAllocator alloc;
  const auto first = alloc.allocate_block("exchA", 8);
  const auto second = alloc.allocate_block("exchB", 4);
  EXPECT_EQ(second.value(), first.value() + 8);
  EXPECT_EQ(alloc.total_allocated(), 12u);
  const auto& block = alloc.block("exchA");
  EXPECT_EQ(block.group(0), first);
  EXPECT_EQ(block.group(7).value(), first.value() + 7);
}

TEST(GroupAllocator, RejectsBadInput) {
  EXPECT_THROW((GroupAllocator{net::Ipv4Addr{10, 0, 0, 1}}), std::invalid_argument);
  GroupAllocator alloc;
  EXPECT_THROW(alloc.allocate_block("x", 0), std::invalid_argument);
}

TEST(GroupAllocator, MissingBlockThrows) {
  GroupAllocator alloc;
  EXPECT_THROW((void)alloc.block("nope"), std::out_of_range);
}

TEST(GroupAllocator, GroupIndexOutOfRangeThrows) {
  GroupAllocator alloc;
  alloc.allocate_block("a", 2);
  EXPECT_THROW((void)alloc.block("a").group(2), std::out_of_range);
}

TEST(Mroute, JoinCreatesEntryAndLookupFindsIt) {
  MrouteTable table{4};
  const net::Ipv4Addr g{239, 1, 0, 1};
  table.join(g, 3);
  table.join(g, 5);
  table.join(g, 3);  // duplicate port is idempotent
  auto lookup = table.lookup(g);
  ASSERT_NE(lookup.ports, nullptr);
  EXPECT_EQ(lookup.ports->size(), 2u);
  EXPECT_TRUE(lookup.hardware);
  EXPECT_EQ(table.group_count(), 1u);
}

TEST(Mroute, MissCountsAndReturnsNull) {
  MrouteTable table{4};
  EXPECT_EQ(table.lookup(net::Ipv4Addr{239, 9, 9, 9}).ports, nullptr);
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(Mroute, OverflowFallsBackToSoftware) {
  MrouteTable table{2};
  for (int i = 0; i < 5; ++i) {
    table.join(net::Ipv4Addr{0xe1000000u + static_cast<std::uint32_t>(i)}, 1);
  }
  EXPECT_EQ(table.group_count(), 5u);
  EXPECT_EQ(table.hardware_group_count(), 2u);
  EXPECT_EQ(table.software_group_count(), 3u);
  EXPECT_TRUE(table.overflowed());
  // First two are hardware, the rest software.
  EXPECT_TRUE(table.lookup(net::Ipv4Addr{0xe1000000u}).hardware);
  EXPECT_FALSE(table.lookup(net::Ipv4Addr{0xe1000004u}).hardware);
  EXPECT_EQ(table.stats().hardware_hits, 1u);
  EXPECT_EQ(table.stats().software_hits, 1u);
}

TEST(Mroute, LeaveRemovesPortAndEmptiesEntry) {
  MrouteTable table{4};
  const net::Ipv4Addr g{239, 1, 0, 1};
  table.join(g, 1);
  table.join(g, 2);
  table.leave(g, 1);
  auto lookup = table.lookup(g);
  ASSERT_NE(lookup.ports, nullptr);
  EXPECT_EQ(lookup.ports->size(), 1u);
  table.leave(g, 2);
  EXPECT_EQ(table.lookup(g).ports, nullptr);
  EXPECT_EQ(table.group_count(), 0u);
  EXPECT_EQ(table.hardware_group_count(), 0u);
}

TEST(Mroute, FreedHardwareSlotReusedByNextJoin) {
  MrouteTable table{1};
  const net::Ipv4Addr g1{239, 0, 0, 1};
  const net::Ipv4Addr g2{239, 0, 0, 2};
  table.join(g1, 1);
  table.join(g2, 1);
  EXPECT_FALSE(table.lookup(g2).hardware);  // overflowed
  table.leave(g1, 1);
  const net::Ipv4Addr g3{239, 0, 0, 3};
  table.join(g3, 1);
  EXPECT_TRUE(table.lookup(g3).hardware);   // took the freed slot
  EXPECT_FALSE(table.lookup(g2).hardware);  // no automatic promotion
}

TEST(Igmp, MessageRoundTrip) {
  const IgmpMessage join{IgmpType::kMembershipReport, net::Ipv4Addr{239, 4, 5, 6}};
  const auto encoded = join.encode();
  EXPECT_EQ(encoded.size(), 8u);
  const auto decoded = IgmpMessage::decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IgmpType::kMembershipReport);
  EXPECT_EQ(decoded->group, join.group);
}

TEST(Igmp, DecodeRejectsCorruption) {
  const IgmpMessage leave{IgmpType::kLeaveGroup, net::Ipv4Addr{239, 4, 5, 6}};
  auto encoded = leave.encode();
  encoded[5] ^= std::byte{0xff};
  EXPECT_FALSE(IgmpMessage::decode(encoded).has_value());
  EXPECT_FALSE(IgmpMessage::decode(std::span{encoded}.subspan(0, 4)).has_value());
}

TEST(Igmp, FrameRoundTrip) {
  // Decoded the way a snooping switch does: IPv4 protocol 2, then the
  // IGMP payload.
  const IgmpMessage join{IgmpType::kMembershipReport, net::Ipv4Addr{239, 10, 0, 1}};
  const auto frame =
      build_igmp_frame(net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}, join);
  const auto decoded = net::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->ip.has_value());
  EXPECT_EQ(decoded->ip->protocol, net::kIpProtoIgmp);
  const auto parsed = IgmpMessage::decode(decoded->payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, IgmpType::kMembershipReport);
  EXPECT_EQ(parsed->group, join.group);
}

TEST(Igmp, NonIgmpFrameIsRejected) {
  // Snooping classifies by IPv4 protocol, so a UDP frame is never IGMP.
  const auto frame = net::build_udp_frame(net::MacAddr::from_host_id(1),
                                          net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 1},
                                          net::Ipv4Addr{10, 0, 0, 2}, 1, 2, {});
  const auto decoded = net::decode_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->ip.has_value());
  EXPECT_NE(decoded->ip->protocol, net::kIpProtoIgmp);
}

}  // namespace
}  // namespace tsn::mcast
