#include "proto/norm.hpp"

#include <gtest/gtest.h>

namespace tsn::proto::norm {
namespace {

Update sample_update(std::uint8_t exchange = 3) {
  Update u;
  u.kind = UpdateKind::kBboUpdate;
  u.exchange_id = exchange;
  u.side = Side::kBuy;
  u.symbol = Symbol{"ACME"};
  u.price = price_from_dollars(101.25);
  u.quantity = 700;
  u.order_id = 424242;
  u.exchange_time_ns = 34'200'000'000'123ULL;
  return u;
}

TEST(Norm, UpdateIsFixedSize) {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  encode(sample_update(), w);
  EXPECT_EQ(out.size(), kMessageSize);
}

TEST(Norm, UpdateRoundTrip) {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  const Update original = sample_update();
  encode(original, w);
  net::WireReader r{out};
  const auto decoded = decode_one(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, original.kind);
  EXPECT_EQ(decoded->exchange_id, original.exchange_id);
  EXPECT_EQ(decoded->side, original.side);
  EXPECT_EQ(decoded->symbol, original.symbol);
  EXPECT_EQ(decoded->price, original.price);
  EXPECT_EQ(decoded->quantity, original.quantity);
  EXPECT_EQ(decoded->order_id, original.order_id);
  EXPECT_EQ(decoded->exchange_time_ns, original.exchange_time_ns);
}

TEST(Norm, DecodeRejectsBadKindAndTruncation) {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  encode(sample_update(), w);
  out[0] = std::byte{0};  // invalid kind
  net::WireReader r{out};
  EXPECT_FALSE(decode_one(r).has_value());
  net::WireReader r2{std::span{out}.subspan(0, 10)};
  EXPECT_FALSE(decode_one(r2).has_value());
}

// Copies each datagram out of the builder's buffer, which the next one reuses.
DatagramBuilder::Sink collect(std::vector<std::vector<std::byte>>& out) {
  return [&out](std::span<const std::byte> p) { out.emplace_back(p.begin(), p.end()); };
}

TEST(Norm, DatagramBuilderPacksWithHeader) {
  std::vector<std::vector<std::byte>> out;
  DatagramBuilder builder{9, 1458, collect(out)};
  builder.append(sample_update(), 1'000);
  builder.append(sample_update(), 1'001);
  builder.flush();
  ASSERT_EQ(out.size(), 1u);
  const auto header = peek_header(out[0]);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->partition, 9);
  EXPECT_EQ(header->count, 2);
  EXPECT_EQ(header->sequence, 1u);
  EXPECT_EQ(header->send_time_ns, 1'000u);  // stamped with the first append
  EXPECT_EQ(out[0].size(), kHeaderSize + 2 * kMessageSize);
}

TEST(Norm, SequenceContinuesAcrossDatagrams) {
  std::vector<std::vector<std::byte>> out;
  DatagramBuilder builder{1, 1458, collect(out)};
  builder.append(sample_update(), 1);
  builder.flush();
  builder.append(sample_update(), 2);
  builder.append(sample_update(), 3);
  builder.flush();
  ASSERT_EQ(out.size(), 2u);
  const auto first = peek_header(out[0]);
  const auto second = peek_header(out[1]);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->sequence, 1u);
  EXPECT_EQ(second->sequence, 2u);
  EXPECT_EQ(second->count, 2);
}

TEST(Norm, AutoFlushAtMtu) {
  int flushes = 0;
  DatagramBuilder builder{1, kHeaderSize + kMessageSize,  // fits exactly one
                          [&](std::span<const std::byte>) { ++flushes; }};
  builder.append(sample_update(), 1);
  builder.append(sample_update(), 2);
  builder.flush();
  EXPECT_EQ(flushes, 2);
}

TEST(Norm, ParseRoundTrip) {
  std::vector<std::vector<std::byte>> out;
  DatagramBuilder builder{4, 1458, collect(out)};
  for (int i = 0; i < 5; ++i) builder.append(sample_update(static_cast<std::uint8_t>(i)), 100);
  builder.flush();
  ASSERT_EQ(out.size(), 1u);
  const std::vector<std::byte>& payload = out[0];
  const auto header = peek_header(payload);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->partition, 4);
  EXPECT_EQ(header->count, 5);
  std::vector<Update> updates;
  ASSERT_TRUE(for_each_update(payload, [&](const Update& u) { updates.push_back(u); }));
  ASSERT_EQ(updates.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(updates[static_cast<std::size_t>(i)].exchange_id, i);
  }
}

TEST(Norm, ParseRejectsWrongMagicAndShortBuffers) {
  std::vector<std::vector<std::byte>> out;
  DatagramBuilder builder{4, 1458, collect(out)};
  builder.append(sample_update(), 100);
  builder.flush();
  ASSERT_EQ(out.size(), 1u);
  const std::vector<std::byte>& payload = out[0];
  auto rejected = [](std::span<const std::byte> bytes) {
    int updates = 0;
    const bool walked = for_each_update(bytes, [&updates](const Update&) { ++updates; });
    return !peek_header(bytes).has_value() && !walked && updates == 0;
  };
  auto bad = payload;
  bad[0] = std::byte{0x00};
  EXPECT_TRUE(rejected(bad));
  EXPECT_TRUE(rejected(std::span{payload}.subspan(0, kHeaderSize - 2)));
  // Header claims more updates than the buffer carries.
  auto truncated = payload;
  truncated.resize(kHeaderSize + kMessageSize - 1);
  EXPECT_TRUE(rejected(truncated));
}

TEST(Norm, RejectsTinyMtu) {
  EXPECT_THROW(DatagramBuilder(1, 10, [](std::span<const std::byte>) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsn::proto::norm
