// Decoder robustness: random and mutated bytes must never crash, hang, or
// over-read any wire decoder — the property that matters when a feed
// handler is fed a truncated or corrupted frame at 10 Gb/s.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "pitch_oracle.hpp"
#include "proto/boe.hpp"
#include "proto/norm.hpp"
#include "proto/pitch.hpp"
#include "proto/xpress.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace tsn {
namespace {

std::vector<std::byte> random_bytes(sim::Rng& rng, std::size_t max_len) {
  const auto len = rng.next_below(max_len + 1);
  std::vector<std::byte> out(len);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

proto::Symbol random_symbol(sim::Rng& rng) {
  char chars[4] = {static_cast<char>('A' + rng.next_below(26)),
                   static_cast<char>('A' + rng.next_below(26)),
                   static_cast<char>('A' + rng.next_below(26)), '\0'};
  return proto::Symbol{chars};
}

proto::Side random_side(sim::Rng& rng) {
  return rng.bernoulli(0.5) ? proto::Side::kBuy : proto::Side::kSell;
}

proto::pitch::Message random_pitch_message(sim::Rng& rng) {
  switch (rng.next_below(9)) {
    case 0: {
      proto::pitch::Time m;
      m.seconds_since_midnight = static_cast<std::uint32_t>(rng.next_below(86'400));
      return proto::pitch::Message{m};
    }
    case 1: {
      proto::pitch::AddOrder m;
      m.time_offset_ns = static_cast<std::uint32_t>(rng.next_u64());
      m.order_id = rng.next_u64();
      m.side = random_side(rng);
      // Half short-form, half long-form (quantity/price past 16 bits).
      m.quantity = static_cast<proto::Quantity>(rng.next_below(rng.bernoulli(0.5) ? 0xffff : 0xffffff));
      m.symbol = random_symbol(rng);
      m.price = static_cast<proto::Price>(rng.next_below(rng.bernoulli(0.5) ? 0xffff : 0xffffffff));
      m.flags = static_cast<std::uint8_t>(rng.next_below(256));
      return proto::pitch::Message{m};
    }
    case 2: {
      proto::pitch::OrderExecuted m;
      m.time_offset_ns = static_cast<std::uint32_t>(rng.next_u64());
      m.order_id = rng.next_u64();
      m.executed_quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.execution_id = rng.next_u64();
      return proto::pitch::Message{m};
    }
    case 3: {
      proto::pitch::ReduceSize m;
      m.order_id = rng.next_u64();
      m.cancelled_quantity = static_cast<proto::Quantity>(rng.next_u64());
      return proto::pitch::Message{m};
    }
    case 4: {
      proto::pitch::ModifyOrder m;
      m.order_id = rng.next_u64();
      m.quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.price = static_cast<proto::Price>(rng.next_below(1'000'000'000));
      m.flags = static_cast<std::uint8_t>(rng.next_below(256));
      return proto::pitch::Message{m};
    }
    case 5: {
      proto::pitch::DeleteOrder m;
      m.order_id = rng.next_u64();
      return proto::pitch::Message{m};
    }
    case 6: {
      proto::pitch::Trade m;
      m.order_id = rng.next_u64();
      m.side = random_side(rng);
      m.quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.symbol = random_symbol(rng);
      m.price = static_cast<proto::Price>(rng.next_below(1'000'000'000));
      m.execution_id = rng.next_u64();
      return proto::pitch::Message{m};
    }
    case 7: {
      proto::pitch::SnapshotBegin m;
      m.unit = static_cast<std::uint8_t>(rng.next_below(256));
      m.next_sequence = static_cast<std::uint32_t>(rng.next_u64());
      return proto::pitch::Message{m};
    }
    default: {
      proto::pitch::SnapshotEnd m;
      m.unit = static_cast<std::uint8_t>(rng.next_below(256));
      m.order_count = static_cast<std::uint32_t>(rng.next_u64());
      return proto::pitch::Message{m};
    }
  }
}

proto::boe::Message random_boe_message(sim::Rng& rng) {
  switch (rng.next_below(16)) {
    case 0:
      return proto::boe::LoginRequest{static_cast<std::uint32_t>(rng.next_u64()),
                                      rng.next_u64()};
    case 1:
      return proto::boe::LoginAccepted{};
    case 2:
      return proto::boe::LoginRejected{proto::boe::RejectReason::kNotLoggedIn};
    case 3:
      return proto::boe::Heartbeat{};
    case 4:
      return proto::boe::Logout{};
    case 5: {
      proto::boe::NewOrder m;
      m.client_order_id = rng.next_u64();
      m.side = random_side(rng);
      m.quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.symbol = random_symbol(rng);
      m.price = static_cast<proto::Price>(rng.next_below(1'000'000'000));
      m.tif = rng.bernoulli(0.5) ? proto::boe::TimeInForce::kDay
                                 : proto::boe::TimeInForce::kImmediateOrCancel;
      return proto::boe::Message{m};
    }
    case 6:
      return proto::boe::CancelOrder{rng.next_u64()};
    case 7: {
      proto::boe::ModifyOrder m;
      m.client_order_id = rng.next_u64();
      m.quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.price = static_cast<proto::Price>(rng.next_below(1'000'000'000));
      return proto::boe::Message{m};
    }
    case 8: {
      proto::boe::OrderAccepted m;
      m.client_order_id = rng.next_u64();
      m.exchange_order_id = rng.next_u64();
      m.transact_time_ns = rng.next_u64();
      return proto::boe::Message{m};
    }
    case 9:
      return proto::boe::OrderRejected{rng.next_u64(),
                                       proto::boe::RejectReason::kRiskLimit};
    case 10: {
      proto::boe::OrderCancelled m;
      m.client_order_id = rng.next_u64();
      m.cancelled_quantity = static_cast<proto::Quantity>(rng.next_u64());
      return proto::boe::Message{m};
    }
    case 11: {
      proto::boe::OrderModified m;
      m.client_order_id = rng.next_u64();
      m.quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.price = static_cast<proto::Price>(rng.next_below(1'000'000'000));
      return proto::boe::Message{m};
    }
    case 12:
      return proto::boe::CancelRejected{rng.next_u64(),
                                        proto::boe::RejectReason::kUnknownOrder};
    case 13:
      return proto::boe::ReplayRequest{static_cast<std::uint32_t>(rng.next_u64())};
    case 14:
      return proto::boe::SequenceReset{static_cast<std::uint32_t>(rng.next_u64())};
    default: {
      proto::boe::Fill m;
      m.client_order_id = rng.next_u64();
      m.execution_id = rng.next_u64();
      m.quantity = static_cast<proto::Quantity>(rng.next_u64());
      m.price = static_cast<proto::Price>(rng.next_below(1'000'000'000));
      m.leaves_quantity = static_cast<proto::Quantity>(rng.next_u64());
      return proto::boe::Message{m};
    }
  }
}

// A Packet built from `bytes` must carry the view decode_frame gives, field
// by field, with the payload at the same offset and length; its Ethernet
// view must exist whenever the Ethernet header parses, even when a later
// header does not.
void expect_packet_view_matches(net::PacketFactory& factory, std::span<const std::byte> bytes) {
  const auto packet = factory.make(bytes, sim::Time{});
  const auto expected = net::decode_frame(bytes);
  net::WireReader r{bytes};
  const auto eth = net::EthernetHeader::decode(r);

  const net::EthernetHeader* got_eth = packet->ethernet();
  ASSERT_EQ(got_eth != nullptr, eth.has_value());
  if (eth) {
    EXPECT_EQ(got_eth->dst, eth->dst);
    EXPECT_EQ(got_eth->src, eth->src);
    EXPECT_EQ(got_eth->ethertype, eth->ethertype);
  }
  const net::DecodedFrame* got = packet->decoded();
  ASSERT_EQ(got != nullptr, expected.has_value());
  if (!expected) return;
  EXPECT_EQ(&got->eth, got_eth);
  ASSERT_EQ(got->ip.has_value(), expected->ip.has_value());
  if (expected->ip) {
    EXPECT_EQ(got->ip->dscp, expected->ip->dscp);
    EXPECT_EQ(got->ip->total_length, expected->ip->total_length);
    EXPECT_EQ(got->ip->identification, expected->ip->identification);
    EXPECT_EQ(got->ip->ttl, expected->ip->ttl);
    EXPECT_EQ(got->ip->protocol, expected->ip->protocol);
    EXPECT_EQ(got->ip->checksum, expected->ip->checksum);
    EXPECT_EQ(got->ip->src, expected->ip->src);
    EXPECT_EQ(got->ip->dst, expected->ip->dst);
  }
  ASSERT_EQ(got->udp.has_value(), expected->udp.has_value());
  if (expected->udp) {
    EXPECT_EQ(got->udp->src_port, expected->udp->src_port);
    EXPECT_EQ(got->udp->dst_port, expected->udp->dst_port);
    EXPECT_EQ(got->udp->length, expected->udp->length);
  }
  ASSERT_EQ(got->tcp.has_value(), expected->tcp.has_value());
  if (expected->tcp) {
    EXPECT_EQ(got->tcp->src_port, expected->tcp->src_port);
    EXPECT_EQ(got->tcp->dst_port, expected->tcp->dst_port);
    EXPECT_EQ(got->tcp->seq, expected->tcp->seq);
    EXPECT_EQ(got->tcp->ack, expected->tcp->ack);
    EXPECT_EQ(got->tcp->flags, expected->tcp->flags);
    EXPECT_EQ(got->tcp->window, expected->tcp->window);
  }
  // The cached payload points into the packet's own copy of the bytes.
  EXPECT_EQ(got->payload.data() - packet->frame().data(),
            expected->payload.data() - bytes.data());
  EXPECT_EQ(got->payload.size(), expected->payload.size());
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, RandomBytesNeverCrashAnyDecoder) {
  sim::Rng rng{GetParam()};
  net::PacketFactory packets;
  for (int i = 0; i < 2'000; ++i) {
    const auto bytes = random_bytes(rng, 200);
    // Every decoder either parses or rejects; none may crash or over-read.
    (void)net::decode_frame(bytes);
    expect_packet_view_matches(packets, bytes);
    (void)proto::pitch::peek_header(bytes);
    proto::pitch::DecodedBatch batch;
    (void)proto::pitch::decode_batch(bytes, batch);
    (void)proto::norm::peek_header(bytes);
    (void)proto::norm::for_each_update(bytes, [](const proto::norm::Update&) {});
    (void)proto::boe::decode(bytes);
    (void)proto::boe::complete_length(bytes);
    proto::xpress::Decompressor xr;
    (void)xr.decode(bytes);
    // The oracle too: the parity tests below trust it on garbage.
    (void)proto::pitch::oracle::for_each_message(bytes, [](const proto::pitch::Message&) {});
    net::WireReader r{bytes};
    (void)proto::pitch::oracle::decode_one(r);
  }
}

TEST_P(FuzzTest, MutatedValidPitchFramesAreParsedOrRejected) {
  sim::Rng rng{GetParam() ^ 0xabcdef};
  std::vector<std::byte> valid;
  proto::pitch::FrameBuilder builder{1, 1458,
                                     [&valid](std::vector<std::byte> p,
                                              const proto::pitch::UnitHeader&) {
                                       valid = std::move(p);
                                     }};
  proto::pitch::AddOrder add;
  add.order_id = 1;
  add.symbol = proto::Symbol{"ACME"};
  add.quantity = 100;
  add.price = 1'000;
  for (int i = 0; i < 6; ++i) builder.append(proto::pitch::Message{add});
  builder.flush();

  proto::pitch::DecodedBatch batch;
  for (int round = 0; round < 2'000; ++round) {
    auto mutated = valid;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::byte>(1 << rng.next_below(8));
    }
    // May fail, may succeed; must never crash and never claim more
    // messages than the (possibly mutated) header allows.
    (void)proto::pitch::decode_batch(mutated, batch);
    EXPECT_LE(batch.count, std::size_t{255});
  }
}

TEST_P(FuzzTest, BoeStreamParserSurvivesGarbageInterleaving) {
  sim::Rng rng{GetParam() ^ 0x5a5a5a};
  for (int round = 0; round < 200; ++round) {
    proto::boe::StreamParser parser;
    // Random mix of valid messages and garbage, fed in random chunks.
    std::vector<std::byte> stream;
    int valid_count = 0;
    for (int i = 0; i < 20; ++i) {
      if (rng.bernoulli(0.7)) {
        const auto m = proto::boe::encode(
            proto::boe::Message{proto::boe::CancelOrder{static_cast<proto::OrderId>(i)}},
            static_cast<std::uint32_t>(i));
        stream.insert(stream.end(), m.begin(), m.end());
        ++valid_count;
      } else {
        const auto garbage = random_bytes(rng, 30);
        stream.insert(stream.end(), garbage.begin(), garbage.end());
        break;  // garbage tears the stream; nothing after it is reliable
      }
    }
    std::size_t offset = 0;
    int decoded = 0;
    while (offset < stream.size()) {
      const auto chunk = 1 + rng.next_below(17);
      const auto len = std::min<std::size_t>(chunk, stream.size() - offset);
      parser.feed(std::span{stream}.subspan(offset, len));
      offset += len;
      while (parser.next()) ++decoded;
      if (parser.broken()) break;
    }
    EXPECT_LE(decoded, valid_count);
  }
}

TEST_P(FuzzTest, TruncationSweepOverEveryPrefix) {
  sim::Rng rng{GetParam()};
  const auto frame = net::build_udp_frame(
      net::MacAddr::from_host_id(1), net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 1},
      net::Ipv4Addr{10, 0, 0, 2}, 1, 2, random_bytes(rng, 100));
  net::PacketFactory packets;
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    const auto decoded = net::decode_frame(std::span{frame}.subspan(0, len));
    expect_packet_view_matches(packets, std::span{frame}.subspan(0, len));
    if (len == frame.size()) {
      EXPECT_TRUE(decoded.has_value());
    }
    // Shorter prefixes may or may not decode (padding regions), but the
    // payload, when present, must stay inside the buffer.
    if (decoded && !decoded->payload.empty()) {
      const auto* begin = frame.data();
      EXPECT_GE(decoded->payload.data(), begin);
      EXPECT_LE(decoded->payload.data() + decoded->payload.size(), begin + len);
    }
  }
}

TEST_P(FuzzTest, PacketViewsMatchDecodeFrameForTcpAndCorruptIpv4) {
  sim::Rng rng{GetParam() ^ 0x7c9};
  net::PacketFactory packets;
  const net::MacAddr nic_mac = net::MacAddr::from_host_id(2);
  for (int round = 0; round < 200; ++round) {
    net::TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(rng.next_below(65'536));
    tcp.dst_port = static_cast<std::uint16_t>(rng.next_below(65'536));
    tcp.seq = static_cast<std::uint32_t>(rng.next_u64());
    tcp.ack = static_cast<std::uint32_t>(rng.next_u64());
    tcp.flags = static_cast<std::uint8_t>(rng.next_below(32));
    const auto dst_mac = rng.bernoulli(0.5) ? nic_mac : net::MacAddr::from_host_id(3);
    auto frame = net::build_tcp_frame(net::MacAddr::from_host_id(1), dst_mac,
                                      net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2}, tcp,
                                      random_bytes(rng, 100));
    for (std::size_t len = 0; len <= frame.size(); len += 1 + rng.next_below(9)) {
      expect_packet_view_matches(packets, std::span{frame}.subspan(0, len));
    }
    expect_packet_view_matches(packets, frame);

    // One flipped bit in the IPv4 header fails its checksum: decode_frame
    // rejects the frame, but the Ethernet header still parses.
    frame[net::kEthernetHeaderSize + rng.next_below(net::kIpv4HeaderSize)] ^=
        static_cast<std::byte>(1 << rng.next_below(8));
    ASSERT_FALSE(net::decode_frame(frame).has_value());
    expect_packet_view_matches(packets, frame);

    // A NIC's MAC filter still reads that Ethernet header: accepted when it
    // names the NIC, filtered otherwise, exactly as for an intact frame.
    sim::Engine engine;
    net::Nic nic{engine, "nic", nic_mac, net::Ipv4Addr{10, 0, 0, 2}};
    nic.receive(packets.make(std::span<const std::byte>{frame}, sim::Time{}), 0);
    EXPECT_EQ(nic.rx_frames(), dst_mac == nic_mac ? 1u : 0u);
    EXPECT_EQ(nic.rx_filtered(), dst_mac == nic_mac ? 0u : 1u);
  }
}

// --- deterministic-seed round trips over all three codecs -------------------

TEST_P(FuzzTest, PitchRandomMessagesRoundTripThroughFrames) {
  sim::Rng rng{GetParam() ^ 0x9177c4};
  for (int round = 0; round < 50; ++round) {
    std::vector<proto::pitch::Message> sent;
    std::vector<std::vector<std::byte>> frames;
    proto::pitch::FrameBuilder builder{
        3, 1458,
        [&frames](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
          frames.push_back(std::move(p));
        }};
    const auto n = 1 + rng.next_below(40);
    for (std::uint64_t i = 0; i < n; ++i) {
      sent.push_back(random_pitch_message(rng));
      builder.append(sent.back());
    }
    builder.flush();
    std::vector<proto::pitch::Message> got;
    proto::pitch::DecodedBatch batch;
    for (const auto& frame : frames) {
      ASSERT_TRUE(proto::pitch::decode_batch(frame, batch));
      for (std::size_t i = 0; i < batch.count; ++i) got.push_back(batch.message_at(i));
    }
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      // Variant alternative and re-encoding must both match exactly.
      EXPECT_EQ(got[i].index(), sent[i].index());
      std::vector<std::byte> a, b;
      net::WireWriter wa{a}, wb{b};
      proto::pitch::encode(sent[i], wa);
      proto::pitch::encode(got[i], wb);
      EXPECT_EQ(a, b);
    }
  }
}

TEST_P(FuzzTest, BoeRandomMessagesRoundTrip) {
  sim::Rng rng{GetParam() ^ 0xb0e0b0e0};
  for (int round = 0; round < 500; ++round) {
    const auto message = random_boe_message(rng);
    const auto seq = static_cast<std::uint32_t>(rng.next_u64());
    const auto encoded = proto::boe::encode(message, seq);
    EXPECT_EQ(proto::boe::complete_length(encoded), encoded.size());
    const auto decoded = proto::boe::decode(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->seq, seq);
    EXPECT_EQ(decoded->consumed, encoded.size());
    EXPECT_EQ(decoded->message.index(), message.index());
    // Re-encoding the decoded message must reproduce the original bytes.
    EXPECT_EQ(proto::boe::encode(decoded->message, seq), encoded);
  }
}

TEST_P(FuzzTest, XpressRandomPayloadsRoundTripAllHeaderForms) {
  sim::Rng rng{GetParam() ^ 0x4e55};
  for (int round = 0; round < 100; ++round) {
    proto::xpress::Compressor compressor;
    proto::xpress::Decompressor decompressor;
    std::uint32_t seq = static_cast<std::uint32_t>(rng.next_below(1 << 30));
    const std::uint16_t stream = static_cast<std::uint16_t>(rng.next_below(0xffff));
    for (int i = 0; i < 20; ++i) {
      const auto payload = random_bytes(rng, 64);
      // Occasional sequence jumps exercise the resync header form.
      seq += rng.bernoulli(0.2) ? 1 + static_cast<std::uint32_t>(rng.next_below(100)) : 1;
      std::vector<std::byte> wire;
      (void)compressor.encode(stream, seq, payload, wire);
      const auto result = decompressor.decode(wire);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->consumed, wire.size());
      EXPECT_EQ(result->frame.stream_id, stream);
      EXPECT_EQ(result->frame.seq, seq);
      ASSERT_EQ(result->frame.payload.size(), payload.size());
      EXPECT_TRUE(std::equal(payload.begin(), payload.end(), result->frame.payload.begin()));
    }
  }
}

// --- truncation sweeps ------------------------------------------------------

TEST_P(FuzzTest, BoeTruncationSweepNeverDecodesAPrefix) {
  sim::Rng rng{GetParam() ^ 0x7274};
  for (int round = 0; round < 100; ++round) {
    const auto message = random_boe_message(rng);
    const auto encoded = proto::boe::encode(message, 7);
    for (std::size_t len = 0; len < encoded.size(); ++len) {
      const auto prefix = std::span{encoded}.subspan(0, len);
      // An incomplete message must never decode.
      EXPECT_FALSE(proto::boe::decode(prefix).has_value());
    }
    EXPECT_TRUE(proto::boe::decode(encoded).has_value());
  }
}

TEST_P(FuzzTest, PitchTruncationSweepOverWholeFrames) {
  sim::Rng rng{GetParam() ^ 0x50495443};
  std::vector<std::byte> frame;
  proto::pitch::FrameBuilder builder{
      1, 1458,
      [&frame](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
        frame = std::move(p);
      }};
  for (int i = 0; i < 10; ++i) builder.append(random_pitch_message(rng));
  builder.flush();
  proto::pitch::DecodedBatch batch;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const auto prefix = std::span{frame}.subspan(0, len);
    // A truncated frame must be rejected whole: peek_header bounds-checks
    // the length field against the buffer, so no row decodes.
    EXPECT_FALSE(proto::pitch::decode_batch(prefix, batch));
    EXPECT_EQ(batch.count, 0u);
  }
  EXPECT_TRUE(proto::pitch::decode_batch(frame, batch));
}

// --- batch decoder vs the scalar oracle -------------------------------------

// Re-encodes a message so structurally-equal messages compare byte-equal.
std::vector<std::byte> reencoded(const proto::pitch::Message& message) {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  proto::pitch::encode(message, w);
  return out;
}

TEST_P(FuzzTest, BatchDecodeMatchesVariantDecoderOnValidFrames) {
  sim::Rng rng{GetParam() ^ 0x42415443};
  proto::pitch::DecodedBatch batch;  // reused across rounds, as consumers do
  for (int round = 0; round < 100; ++round) {
    std::vector<std::vector<std::byte>> frames;
    proto::pitch::FrameBuilder builder{
        2, 1458,
        [&frames](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
          frames.push_back(std::move(p));
        }};
    const auto n = 1 + rng.next_below(40);
    for (std::uint64_t i = 0; i < n; ++i) builder.append(random_pitch_message(rng));
    builder.flush();
    for (const auto& frame : frames) {
      std::vector<proto::pitch::Message> oracle_messages;
      ASSERT_TRUE(proto::pitch::oracle::for_each_message(
          frame,
          [&oracle_messages](const proto::pitch::Message& m) { oracle_messages.push_back(m); }));
      ASSERT_TRUE(proto::pitch::decode_batch(frame, batch));
      ASSERT_EQ(batch.count, oracle_messages.size());
      const auto header = proto::pitch::peek_header(frame);
      ASSERT_TRUE(header.has_value());
      EXPECT_EQ(batch.header.sequence, header->sequence);
      EXPECT_EQ(batch.header.unit, header->unit);
      for (std::size_t i = 0; i < batch.count; ++i) {
        // Row-by-row: the SoA columns must reconstruct the exact message.
        EXPECT_EQ(reencoded(batch.message_at(i)), reencoded(oracle_messages[i]))
            << "message " << i;
      }
    }
  }
}

TEST_P(FuzzTest, BatchDecodeBitFlipParityWithForEachMessage) {
  sim::Rng rng{GetParam() ^ 0x42466c70};
  std::vector<std::byte> valid;
  proto::pitch::FrameBuilder builder{1, 1458,
                                     [&valid](std::vector<std::byte> p,
                                              const proto::pitch::UnitHeader&) {
                                       valid = std::move(p);
                                     }};
  for (int i = 0; i < 12; ++i) builder.append(random_pitch_message(rng));
  builder.flush();
  proto::pitch::DecodedBatch batch;
  for (int round = 0; round < 2'000; ++round) {
    auto mutated = valid;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::byte>(1 << rng.next_below(8));
    }
    // Both decoders share prefix semantics: same verdict, same number of
    // messages surfaced, and identical messages for the shared prefix.
    std::vector<proto::pitch::Message> oracle_messages;
    const bool oracle_ok = proto::pitch::oracle::for_each_message(
        mutated,
        [&oracle_messages](const proto::pitch::Message& m) { oracle_messages.push_back(m); });
    const bool batch_ok = proto::pitch::decode_batch(mutated, batch);
    EXPECT_EQ(batch_ok, oracle_ok);
    ASSERT_EQ(batch.count, oracle_messages.size());
    for (std::size_t i = 0; i < batch.count; ++i) {
      EXPECT_EQ(reencoded(batch.message_at(i)), reencoded(oracle_messages[i]));
    }
  }
}

TEST_P(FuzzTest, BatchDecodeTruncationSweepMatchesParseFrame) {
  sim::Rng rng{GetParam() ^ 0x42545253};
  std::vector<std::byte> frame;
  proto::pitch::FrameBuilder builder{
      1, 1458,
      [&frame](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
        frame = std::move(p);
      }};
  for (int i = 0; i < 10; ++i) builder.append(random_pitch_message(rng));
  builder.flush();
  proto::pitch::DecodedBatch batch;
  for (std::size_t len = 0; len <= frame.size(); ++len) {
    const auto prefix = std::span{frame}.subspan(0, len);
    const bool ok = proto::pitch::decode_batch(prefix, batch);
    const bool oracle_ok =
        proto::pitch::oracle::for_each_message(prefix, [](const proto::pitch::Message&) {});
    EXPECT_EQ(ok, oracle_ok) << "len=" << len;
    EXPECT_LE(batch.count, std::size_t{255});
  }
}

TEST_P(FuzzTest, XpressTruncationSweepNeverOverReads) {
  sim::Rng rng{GetParam() ^ 0x585052};
  for (int round = 0; round < 50; ++round) {
    proto::xpress::Compressor compressor;
    const auto payload = random_bytes(rng, 64);
    std::vector<std::byte> wire;
    (void)compressor.encode(42, 1, payload, wire);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      proto::xpress::Decompressor fresh;
      const auto prefix = std::span{wire}.subspan(0, len);
      EXPECT_FALSE(fresh.decode(prefix).has_value());
    }
  }
}

// --- bit flips --------------------------------------------------------------

TEST_P(FuzzTest, BoeBitFlipsAreParsedOrRejectedInBounds) {
  sim::Rng rng{GetParam() ^ 0x666c6970};
  for (int round = 0; round < 500; ++round) {
    auto mutated = proto::boe::encode(random_boe_message(rng), 9);
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::byte>(1 << rng.next_below(8));
    }
    // May decode (flip hit a don't-care field) or not; must stay in bounds.
    if (const auto decoded = proto::boe::decode(mutated)) {
      EXPECT_LE(decoded->consumed, mutated.size());
    }
  }
}

TEST_P(FuzzTest, XpressBitFlipsAreParsedOrRejectedInBounds) {
  sim::Rng rng{GetParam() ^ 0x58666c70};
  for (int round = 0; round < 500; ++round) {
    proto::xpress::Compressor compressor;
    proto::xpress::Decompressor decompressor;
    std::vector<std::byte> wire;
    (void)compressor.encode(7, 100, random_bytes(rng, 64), wire);
    // Prime the decompressor's context with the clean full-header frame,
    // then feed it a mutated compact/resync continuation.
    (void)decompressor.decode(wire);
    std::vector<std::byte> next;
    (void)compressor.encode(7, 101, random_bytes(rng, 64), next);
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      next[rng.next_below(next.size())] ^= static_cast<std::byte>(1 << rng.next_below(8));
    }
    if (const auto result = decompressor.decode(next)) {
      EXPECT_LE(result->consumed, next.size());
      const auto* base = next.data();
      if (!result->frame.payload.empty()) {
        EXPECT_GE(result->frame.payload.data(), base);
        EXPECT_LE(result->frame.payload.data() + result->frame.payload.size(),
                  base + next.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 0xdeadbeefULL, 0xcafef00dULL));

}  // namespace
}  // namespace tsn
