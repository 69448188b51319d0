#include "proto/boe.hpp"

#include <gtest/gtest.h>

namespace tsn::proto::boe {
namespace {

TEST(Boe, RoundTripEveryMessageType) {
  const std::vector<Message> originals = {
      Message{LoginRequest{7, 0xfeed}},
      Message{LoginAccepted{}},
      Message{LoginRejected{RejectReason::kNotLoggedIn}},
      Message{Heartbeat{}},
      Message{Logout{}},
      Message{ReplayRequest{42}},
      Message{SequenceReset{7}},
      Message{NewOrder{101, Side::kBuy, 500, Symbol{"ACME"}, price_from_dollars(99.5),
                       TimeInForce::kImmediateOrCancel}},
      Message{CancelOrder{101}},
      Message{ModifyOrder{101, 600, price_from_dollars(99.6)}},
      Message{OrderAccepted{101, 555, 123'456'789}},
      Message{OrderRejected{101, RejectReason::kInvalidSymbol}},
      Message{OrderCancelled{101, 500}},
      Message{OrderModified{101, 600, price_from_dollars(99.6)}},
      Message{CancelRejected{101, RejectReason::kTooLateToCancel}},
      Message{Fill{101, 9'001, 200, price_from_dollars(99.5), 300}},
  };
  std::uint32_t seq = 1;
  for (const auto& original : originals) {
    const auto bytes = encode(original, seq);
    EXPECT_EQ(bytes.size(), encoded_size(original));
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.has_value()) << static_cast<int>(type_of(original));
    EXPECT_EQ(decoded->message.index(), original.index());
    EXPECT_EQ(decoded->seq, seq);
    EXPECT_EQ(decoded->consumed, bytes.size());
    ++seq;
  }
}

TEST(Boe, NewOrderFieldsSurvive) {
  const NewOrder original{77, Side::kSell, 1'000, Symbol{"WIDGET"}, price_from_dollars(12.34),
                          TimeInForce::kDay};
  const auto decoded = decode(encode(Message{original}, 5));
  ASSERT_TRUE(decoded.has_value());
  const auto* order = std::get_if<NewOrder>(&decoded->message);
  ASSERT_NE(order, nullptr);
  EXPECT_EQ(order->client_order_id, 77u);
  EXPECT_EQ(order->side, Side::kSell);
  EXPECT_EQ(order->quantity, 1'000u);
  EXPECT_EQ(order->symbol.view(), "WIDGET");
  EXPECT_EQ(order->price, price_from_dollars(12.34));
  EXPECT_EQ(order->tif, TimeInForce::kDay);
}

TEST(Boe, OrderMessagesAreCompact) {
  // Order-entry payloads are tens of bytes (§5): far below one MTU.
  EXPECT_LE(encoded_size(Message{NewOrder{}}), 40u);
  EXPECT_LE(encoded_size(Message{CancelOrder{}}), 20u);
  EXPECT_EQ(encoded_size(Message{Heartbeat{}}), kHeaderSize);
}

TEST(Boe, CompleteLengthHandlesPartialHeaders) {
  const auto bytes = encode(Message{Heartbeat{}}, 1);
  EXPECT_EQ(complete_length(bytes), bytes.size());
  EXPECT_EQ(complete_length(std::span{bytes}.subspan(0, 3)), 0u);
  std::vector<std::byte> bad = bytes;
  bad[0] = std::byte{0x00};  // wrong magic
  EXPECT_EQ(complete_length(bad), 0u);
}

TEST(Boe, DecodeReturnsNulloptOnIncomplete) {
  const auto bytes = encode(Message{NewOrder{}}, 1);
  EXPECT_FALSE(decode(std::span{bytes}.subspan(0, bytes.size() - 1)).has_value());
}

TEST(Boe, DecodeRejectsUnknownType) {
  auto bytes = encode(Message{Heartbeat{}}, 1);
  bytes[4] = std::byte{0xee};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Boe, StreamParserReassemblesAcrossChunks) {
  StreamParser parser;
  const auto m1 = encode(Message{NewOrder{1, Side::kBuy, 100, Symbol{"A"}, 100, {}}}, 1);
  const auto m2 = encode(Message{CancelOrder{1}}, 2);
  std::vector<std::byte> stream = m1;
  stream.insert(stream.end(), m2.begin(), m2.end());
  // Feed in awkward 5-byte chunks.
  std::size_t decoded = 0;
  for (std::size_t offset = 0; offset < stream.size(); offset += 5) {
    const std::size_t len = std::min<std::size_t>(5, stream.size() - offset);
    parser.feed(std::span{stream}.subspan(offset, len));
    while (auto msg = parser.next()) ++decoded;
  }
  EXPECT_EQ(decoded, 2u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  EXPECT_FALSE(parser.broken());
}

TEST(Boe, StreamParserHandlesManyMessages) {
  StreamParser parser;
  std::vector<std::byte> stream;
  constexpr int kCount = 1'000;
  for (int i = 0; i < kCount; ++i) {
    const auto m = encode(Message{CancelOrder{static_cast<OrderId>(i)}},
                          static_cast<std::uint32_t>(i));
    stream.insert(stream.end(), m.begin(), m.end());
  }
  parser.feed(stream);
  int decoded = 0;
  while (auto msg = parser.next()) {
    const auto* cancel = std::get_if<CancelOrder>(&msg->message);
    ASSERT_NE(cancel, nullptr);
    EXPECT_EQ(cancel->client_order_id, static_cast<OrderId>(decoded));
    ++decoded;
  }
  EXPECT_EQ(decoded, kCount);
}

TEST(Boe, StreamParserMarksTornStreamBroken) {
  StreamParser parser;
  std::vector<std::byte> garbage(20, std::byte{0x77});
  parser.feed(garbage);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.broken());
}

// A frame with a valid magic and length that decode() cannot read — an
// unknown type, or a body shorter than its type needs — breaks the stream.
// A parser that only waited for "more bytes" would wedge on it: every later
// message on the stream lost, every later byte buffered.
TEST(Boe, StreamParserBreaksOnAWellFramedUndecodableMessage) {
  const auto cancel = [](std::uint32_t seq) {
    return encode(Message{CancelOrder{static_cast<OrderId>(seq)}}, seq);
  };
  // magic 0xBA7A | length 9 (header only) | type 0x99 | seq 1
  const std::vector<std::byte> unknown_type = {
      std::byte{0x7a}, std::byte{0xba}, std::byte{0x09}, std::byte{0x00}, std::byte{0x99},
      std::byte{0x01}, std::byte{0x00}, std::byte{0x00}, std::byte{0x00}};
  // A CancelOrder whose length leaves 4 of its 8 body bytes outside the frame.
  std::vector<std::byte> short_body = cancel(1);
  short_body[2] = std::byte{kHeaderSize + 4};
  short_body.resize(kHeaderSize + 4);

  for (const auto& bad : {unknown_type, short_body}) {
    StreamParser parser;
    std::vector<std::byte> stream = bad;
    const auto next = cancel(2);
    stream.insert(stream.end(), next.begin(), next.end());
    parser.feed(stream);
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_TRUE(parser.broken());
    for (std::uint32_t seq = 3; seq < 1'003; ++seq) parser.feed(cancel(seq));
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_EQ(parser.buffered_bytes(), 0u) << "a broken stream must not keep buffering";
  }
}

// Side and time in force are enums on the wire: any other byte is a
// malformed order, not a sell (the book files every non-buy as a sell) and
// not a Day order.
TEST(Boe, DecodeRejectsNewOrderSideOrTimeInForceOutsideTheirEnums) {
  const auto wire = encode(Message{NewOrder{1, Side::kBuy, 100, Symbol{"A"}, 100, {}}}, 1);
  // Body: client id (8) | side (1) | quantity (4) | symbol | price (8) | tif (1)
  const std::size_t side_at = kHeaderSize + 8;
  const std::size_t tif_at = wire.size() - 1;
  const auto with = [&wire](std::size_t at, std::uint8_t byte) {
    auto mutated = wire;
    mutated[at] = std::byte{byte};
    return decode(mutated);
  };
  for (const std::uint8_t side : {0x00, 0x01, int{'b'}, int{'s'}, int{'X'}, 0xff}) {
    EXPECT_FALSE(with(side_at, side).has_value()) << "side byte " << int{side};
  }
  for (const std::uint8_t tif : {2, 3, 0x7f, 0xff}) {
    EXPECT_FALSE(with(tif_at, tif).has_value()) << "tif byte " << int{tif};
  }
  const auto sell = with(side_at, 'S');
  ASSERT_TRUE(sell.has_value());
  EXPECT_EQ(std::get<NewOrder>(sell->message).side, Side::kSell);
  const auto ioc = with(tif_at, 1);
  ASSERT_TRUE(ioc.has_value());
  EXPECT_EQ(std::get<NewOrder>(ioc->message).tif, TimeInForce::kImmediateOrCancel);
}

TEST(Boe, RaceSemantics_CancelAfterFillGetsRejectReason) {
  // Protocol-level support for the §2 race: the reason code exists and
  // round-trips; the exchange tests exercise the actual race.
  const auto decoded =
      decode(encode(Message{CancelRejected{55, RejectReason::kTooLateToCancel}}, 9));
  ASSERT_TRUE(decoded.has_value());
  const auto* reject = std::get_if<CancelRejected>(&decoded->message);
  ASSERT_NE(reject, nullptr);
  EXPECT_EQ(reject->reason, RejectReason::kTooLateToCancel);
}

}  // namespace
}  // namespace tsn::proto::boe
