// Integration: the Xpress custom transport over a merged L1S circuit —
// the §5 co-design the paper sketches. Two market-data publishers share
// one physical pipe into a consumer through an L1S mux; Xpress's
// self-delimiting compressed headers let the consumer demultiplex the
// interleaved streams with no Ethernet/IP/UDP framing at all.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "l1s/layer1_switch.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "proto/norm.hpp"
#include "proto/xpress.hpp"

namespace tsn {
namespace {

std::vector<std::byte> norm_update_bytes(std::uint8_t exchange_id, std::uint32_t seq) {
  proto::norm::Update update;
  update.exchange_id = exchange_id;
  update.symbol = proto::Symbol{"ACME"};
  update.price = proto::price_from_dollars(100.0) + seq;
  update.quantity = 100;
  std::vector<std::byte> out;
  net::WireWriter w{out};
  proto::norm::encode(update, w);
  return out;
}

TEST(XpressOverL1s, MergedStreamsDemultiplexCleanly) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  l1s::L1SwitchConfig config;
  config.port_count = 4;
  l1s::Layer1Switch sw{engine, "l1s", config};
  net::LinkConfig link;

  net::Nic feed_a{engine, "feedA", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic feed_b{engine, "feedB", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};
  net::Nic consumer{engine, "strategy", net::MacAddr::from_host_id(3),
                    net::Ipv4Addr{10, 0, 0, 3}};
  consumer.set_promiscuous(true);  // Xpress frames have no Ethernet header
  fabric.connect(sw, 0, feed_a, 0, link);
  fabric.connect(sw, 1, feed_b, 0, link);
  fabric.connect(sw, 2, consumer, 0, link);
  sw.patch(0, 2);
  sw.patch(1, 2);  // the merge

  proto::xpress::Decompressor rx;
  std::vector<std::pair<std::uint16_t, std::uint32_t>> received;  // (stream, seq)
  std::uint64_t decoded_updates = 0;
  consumer.set_rx_handler([&](const net::PacketPtr& packet, sim::Time) {
    const auto result = rx.decode(packet->frame());
    ASSERT_TRUE(result.has_value());
    received.emplace_back(result->frame.stream_id, result->frame.seq);
    net::WireReader reader{result->frame.payload};
    const auto update = proto::norm::decode_one(reader);
    ASSERT_TRUE(update.has_value());
    EXPECT_EQ(update->exchange_id, result->frame.stream_id);
    ++decoded_updates;
  });

  // Senders sharing a merged pipe are provisioned with disjoint context
  // ranges (part of patching the circuit).
  proto::xpress::Compressor tx_a{0, 32};
  proto::xpress::Compressor tx_b{32, 32};
  constexpr std::uint32_t kFrames = 50;
  for (std::uint32_t seq = 1; seq <= kFrames; ++seq) {
    std::vector<std::byte> frame_a;
    (void)tx_a.encode(1, seq, norm_update_bytes(1, seq), frame_a);
    feed_a.send_frame(std::move(frame_a));
    std::vector<std::byte> frame_b;
    (void)tx_b.encode(2, seq, norm_update_bytes(2, seq), frame_b);
    feed_b.send_frame(std::move(frame_b));
    engine.run();
  }

  ASSERT_EQ(received.size(), 2 * kFrames);
  EXPECT_EQ(decoded_updates, 2 * kFrames);
  // Per-stream sequences arrive in order and complete.
  std::uint32_t next_a = 1;
  std::uint32_t next_b = 1;
  for (const auto& [stream, seq] : received) {
    if (stream == 1) {
      EXPECT_EQ(seq, next_a++);
    } else {
      ASSERT_EQ(stream, 2);
      EXPECT_EQ(seq, next_b++);
    }
  }
  EXPECT_EQ(rx.unknown_context_errors(), 0u);
}

TEST(XpressOverL1s, CompressedHeadersSaveMergedBandwidth) {
  // After stream setup every frame carries 3 header bytes instead of 46 —
  // on a merged pipe that headroom is the §4.3 congestion margin.
  proto::xpress::Compressor tx;
  std::vector<std::byte> pipe;
  std::uint64_t header_bytes = 0;
  constexpr int kFrames = 1'000;
  for (int i = 0; i < kFrames; ++i) {
    header_bytes +=
        tx.encode(7, static_cast<std::uint32_t>(i + 1), norm_update_bytes(7, 1), pipe);
  }
  EXPECT_LT(static_cast<double>(header_bytes) / kFrames, 3.1);
  const double standard = 46.0 + proto::norm::kMessageSize;
  const double xpress = static_cast<double>(pipe.size()) / kFrames;
  EXPECT_LT(xpress / standard, 0.55);  // >45% wire bytes saved per update
}

}  // namespace
}  // namespace tsn
