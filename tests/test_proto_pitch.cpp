#include "proto/pitch.hpp"

#include <gtest/gtest.h>

#include "pitch_oracle.hpp"

namespace tsn::proto::pitch {
namespace {

Message sample_add(bool long_form) {
  AddOrder m;
  m.time_offset_ns = 123'456;
  m.order_id = 42;
  m.side = Side::kSell;
  m.symbol = Symbol{"ACME"};
  if (long_form) {
    m.quantity = 100'000;
    m.price = price_from_dollars(123.45);
  } else {
    m.quantity = 500;
    m.price = 60'000;  // $6.00 fits the short form
  }
  return m;
}

std::vector<std::byte> encode_to_bytes(const Message& m) {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  encode(m, w);
  return out;
}

// Wraps raw message bytes in a unit header that claims one message and
// covers exactly `body`, so decode_batch sees the bytes as they are.
std::vector<std::byte> one_message_datagram(std::span<const std::byte> body) {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  w.u16_le(static_cast<std::uint16_t>(kUnitHeaderSize + body.size()));
  w.u8(1);      // count
  w.u8(0);      // unit
  w.u32_le(1);  // sequence
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST(Pitch, MessageSizesMatchTheSpec) {
  // The paper quotes 26 bytes for a new order and 14 for a cancel (§5).
  EXPECT_EQ(encoded_size(sample_add(false)), 26u);
  EXPECT_EQ(encoded_size(sample_add(true)), 34u);
  EXPECT_EQ(encoded_size(Message{DeleteOrder{}}), 14u);
  EXPECT_EQ(encoded_size(Message{Time{}}), 6u);
  EXPECT_EQ(encoded_size(Message{OrderExecuted{}}), 26u);
  EXPECT_EQ(encoded_size(Message{ReduceSize{}}), 18u);
  EXPECT_EQ(encoded_size(Message{ModifyOrder{}}), 27u);
  EXPECT_EQ(encoded_size(Message{Trade{}}), 41u);
}

TEST(Pitch, EncodedSizeMatchesActualBytes) {
  for (const auto& m :
       {sample_add(false), sample_add(true), Message{DeleteOrder{1, 2}}, Message{Time{34200}},
        Message{OrderExecuted{1, 2, 3, 4}}, Message{ReduceSize{1, 2, 3}},
        Message{ModifyOrder{1, 2, 3, 4, 5}},
        Message{Trade{1, 2, Side::kBuy, 3, Symbol{"X"}, 4, 5}}}) {
    EXPECT_EQ(encode_to_bytes(m).size(), encoded_size(m));
  }
}

TEST(Pitch, ShortFormSelectionBoundaries) {
  AddOrder m;
  m.quantity = 0xffff;
  m.price = 0xffff;
  EXPECT_TRUE(m.fits_short_form());
  m.quantity = 0x10000;
  EXPECT_FALSE(m.fits_short_form());
  m.quantity = 1;
  m.price = 0x10000;
  EXPECT_FALSE(m.fits_short_form());
  m.price = -1;
  EXPECT_FALSE(m.fits_short_form());
}

TEST(Pitch, RoundTripAllMessageTypes) {
  const std::vector<Message> originals = {
      Message{Time{34'200}},
      sample_add(false),
      sample_add(true),
      Message{OrderExecuted{9, 77, 300, 1234}},
      Message{ReduceSize{10, 78, 200}},
      Message{ModifyOrder{11, 79, 400, price_from_dollars(9.99), 1}},
      Message{DeleteOrder{12, 80}},
      Message{Trade{13, 81, Side::kBuy, 500, Symbol{"WIDGET"}, price_from_dollars(55.5), 999}},
  };
  DecodedBatch batch;
  for (const auto& original : originals) {
    const auto bytes = encode_to_bytes(original);
    // true means every byte the header covers was consumed.
    ASSERT_TRUE(decode_batch(one_message_datagram(bytes), batch));
    ASSERT_EQ(batch.count, 1u);
    EXPECT_EQ(oracle::message_at(batch, 0).index(), original.index());
    EXPECT_EQ(encode_to_bytes(oracle::message_at(batch, 0)), bytes);
  }
}

TEST(Pitch, AddOrderFieldsSurviveRoundTrip) {
  DecodedBatch batch;
  ASSERT_TRUE(decode_batch(one_message_datagram(encode_to_bytes(sample_add(true))), batch));
  ASSERT_EQ(batch.count, 1u);
  EXPECT_EQ(batch.kind[0], DecodedKind::kAddOrder);
  EXPECT_EQ(batch.order_id[0], 42u);
  EXPECT_EQ(batch.side[0], Side::kSell);
  EXPECT_EQ(batch.quantity[0], 100'000u);
  EXPECT_EQ(batch.price[0], price_from_dollars(123.45));
  EXPECT_EQ(batch.symbol[0].view(), "ACME");
  EXPECT_EQ(batch.u32a[0], 123'456u);  // time_offset_ns
}

TEST(Pitch, DecodeRejectsTruncationAndBadType) {
  auto bytes = encode_to_bytes(sample_add(false));
  DecodedBatch batch;
  EXPECT_FALSE(decode_batch(one_message_datagram(std::span{bytes}.subspan(0, 10)), batch));
  EXPECT_EQ(batch.count, 0u);
  bytes[1] = std::byte{0x7f};  // unknown type
  EXPECT_FALSE(decode_batch(one_message_datagram(bytes), batch));
  EXPECT_EQ(batch.count, 0u);
}

TEST(Pitch, DecodeRejectsWrongLengthField) {
  auto bytes = encode_to_bytes(Message{DeleteOrder{1, 2}});
  bytes[0] = std::byte{13};  // claims 13, type says delete (14)
  DecodedBatch batch;
  EXPECT_FALSE(decode_batch(one_message_datagram(bytes), batch));
  EXPECT_EQ(batch.count, 0u);
}

TEST(Pitch, FrameBuilderPacksAndSequences) {
  std::vector<std::pair<std::vector<std::byte>, UnitHeader>> frames;
  FrameBuilder builder{7, 200, [&](std::vector<std::byte> payload, const UnitHeader& header) {
                         frames.emplace_back(std::move(payload), header);
                       }};
  for (int i = 0; i < 3; ++i) builder.append(sample_add(false));
  builder.flush();
  ASSERT_EQ(frames.size(), 1u);
  const auto& [payload, header] = frames[0];
  EXPECT_EQ(header.unit, 7);
  EXPECT_EQ(header.count, 3);
  EXPECT_EQ(header.sequence, 1u);
  EXPECT_EQ(header.length, kUnitHeaderSize + 3 * 26);
  EXPECT_EQ(payload.size(), header.length);
  // Next frame continues the sequence.
  builder.append(sample_add(false));
  builder.flush();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[1].second.sequence, 4u);
}

TEST(Pitch, FrameBuilderAutoFlushesAtCapacity) {
  std::size_t flushes = 0;
  FrameBuilder builder{1, kUnitHeaderSize + 26 * 2 + 5,
                       [&](std::vector<std::byte>, const UnitHeader& header) {
                         ++flushes;
                         EXPECT_LE(header.length, kUnitHeaderSize + 26 * 2 + 5);
                       }};
  for (int i = 0; i < 5; ++i) builder.append(sample_add(false));
  builder.flush();
  EXPECT_EQ(flushes, 3u);  // 2 + 2 + 1
}

TEST(Pitch, FrameBuilderFlushOnEmptyIsNoop) {
  int flushes = 0;
  FrameBuilder builder{1, 500, [&](std::vector<std::byte>, const UnitHeader&) { ++flushes; }};
  builder.flush();
  EXPECT_EQ(flushes, 0);
}

TEST(Pitch, FrameBuilderRejectsTinyMtu) {
  EXPECT_THROW(FrameBuilder(1, 10, [](std::vector<std::byte>, const UnitHeader&) {}),
               std::invalid_argument);
}

TEST(Pitch, ParseFrameRoundTrip) {
  std::vector<std::byte> payload;
  FrameBuilder builder{3, 1458, [&](std::vector<std::byte> p, const UnitHeader&) {
                         payload = std::move(p);
                       }};
  builder.append(Message{Time{34'200}});
  builder.append(sample_add(false));
  builder.append(Message{DeleteOrder{5, 42}});
  builder.flush();
  DecodedBatch batch;
  ASSERT_TRUE(decode_batch(payload, batch));
  EXPECT_EQ(batch.header.count, 3);
  EXPECT_EQ(batch.header.unit, 3);
  ASSERT_EQ(batch.count, 3u);
  EXPECT_EQ(batch.kind[0], DecodedKind::kTime);
  EXPECT_EQ(batch.kind[1], DecodedKind::kAddOrder);
  EXPECT_EQ(batch.kind[2], DecodedKind::kDeleteOrder);
}

TEST(Pitch, ForEachMessageRejectsCorruptFrame) {
  std::vector<std::byte> payload;
  FrameBuilder builder{3, 1458, [&](std::vector<std::byte> p, const UnitHeader&) {
                         payload = std::move(p);
                       }};
  builder.append(sample_add(false));
  builder.flush();
  payload[9] = std::byte{0x00};  // clobber the first message's type
  DecodedBatch batch;
  EXPECT_FALSE(decode_batch(payload, batch));
  EXPECT_EQ(batch.count, 0u);
}

TEST(Pitch, PeekHeaderRejectsShortOrInconsistentPayloads) {
  EXPECT_FALSE(peek_header(std::vector<std::byte>(4)).has_value());
  std::vector<std::byte> bogus(20, std::byte{0});
  bogus[0] = std::byte{200};  // length 200 > 20 available
  EXPECT_FALSE(peek_header(bogus).has_value());
}

}  // namespace
}  // namespace tsn::proto::pitch
