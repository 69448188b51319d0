// Record-and-replay: the §2 after-hours-simulation workflow. A live run's
// feed is tapped and recorded; replaying it through an identical
// normalizer stack must reproduce the day bit-for-bit.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "capture/replay.hpp"
#include "capture/tap.hpp"
#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "trading/normalizer.hpp"

namespace tsn::capture {
namespace {

exchange::ExchangeConfig exchange_config() {
  exchange::ExchangeConfig config;
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)},
                    {proto::Symbol{"BBB"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(50)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  return config;
}

trading::NormalizerConfig normalizer_config() {
  trading::NormalizerConfig config;
  config.exchange_id = 1;
  config.feed_groups = {net::Ipv4Addr{239, 100, 0, 0}};
  config.partitioning = std::make_shared<proto::HashPartition>(2);
  config.in_mac = net::MacAddr::from_host_id(10);
  config.in_ip = net::Ipv4Addr{10, 0, 1, 1};
  config.out_mac = net::MacAddr::from_host_id(11);
  config.out_ip = net::Ipv4Addr{10, 0, 1, 2};
  return config;
}

// Collects the normalizer's output payloads for comparison.
struct OutputCollector {
  std::vector<std::vector<std::byte>> payloads;

  void attach(sim::Engine& engine, net::Fabric& fabric, trading::Normalizer& normalizer,
              std::unique_ptr<net::Nic>& nic, std::uint32_t host_id) {
    nic = std::make_unique<net::Nic>(engine, "collector", net::MacAddr::from_host_id(host_id),
                                     net::Ipv4Addr{10, 0, 2, 1});
    nic->set_promiscuous(true);
    fabric.connect(normalizer.out_nic(), 0, *nic, 0, net::LinkConfig{});
    nic->set_rx_handler([this](const net::PacketPtr& packet, sim::Time) {
      const auto decoded = net::decode_frame(packet->frame());
      if (decoded && decoded->is_udp()) {
        payloads.emplace_back(decoded->payload.begin(), decoded->payload.end());
      }
    });
  }
};

TEST(Replay, ReplayReproducesTheLiveRunExactly) {
  // ---- Live run: exchange -> tap -> normalizer, record the feed. -------
  FrameRecorder recorder;
  OutputCollector live_output;
  std::uint64_t live_updates = 0;
  {
    sim::Engine engine;
    net::Fabric fabric{engine};
    exchange::Exchange exch{engine, exchange_config()};
    trading::Normalizer normalizer{engine, normalizer_config()};
    Tap tap{engine, "tap"};
    tap.set_packet_hook([&recorder](const net::PacketPtr& packet, net::PortId port,
                                    sim::Time at) {
      if (port == 0) recorder.record(packet, at);  // exchange-side direction
    });
    fabric.connect(exch.feed_nic(), 0, tap, 0, net::LinkConfig{});
    fabric.connect(tap, 1, normalizer.in_nic(), 0, net::LinkConfig{});
    normalizer.join_feeds();
    std::unique_ptr<net::Nic> collector_nic;
    live_output.attach(engine, fabric, normalizer, collector_nic, 20);

    exchange::MarketActivityDriver driver{exch, exchange::ActivityConfig{}, 11};
    driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{20}));
    engine.run();
    live_updates = normalizer.stats().updates_out;
    ASSERT_GT(recorder.size(), 50u);
    ASSERT_GT(live_updates, 50u);
  }

  // ---- Replay: recorded frames -> fresh normalizer. --------------------
  OutputCollector replay_output;
  std::uint64_t replay_updates = 0;
  {
    sim::Engine engine;
    net::Fabric fabric{engine};
    trading::Normalizer normalizer{engine, normalizer_config()};
    net::Nic source{engine, "replay-src", net::MacAddr::from_host_id(1),
                    net::Ipv4Addr{10, 0, 0, 1}};
    fabric.connect(source, 0, normalizer.in_nic(), 0, net::LinkConfig{});
    normalizer.join_feeds();
    std::unique_ptr<net::Nic> collector_nic;
    replay_output.attach(engine, fabric, normalizer, collector_nic, 21);

    FrameReplayer replayer{engine, source};
    EXPECT_EQ(replayer.replay(recorder.frames(), sim::Time::zero()), recorder.size());
    engine.run();
    EXPECT_EQ(replayer.frames_sent(), recorder.size());
    replay_updates = normalizer.stats().updates_out;
  }

  // The replay regenerates the identical normalized stream.
  EXPECT_EQ(replay_updates, live_updates);
  ASSERT_EQ(replay_output.payloads.size(), live_output.payloads.size());
  // Datagram headers carry the normalizer's own send time, which shifts
  // with the replay's start offset; the updates themselves — symbol,
  // price, size, kind, exchange timestamp — must match exactly.
  auto updates_of = [](std::span<const std::byte> payload) {
    std::vector<proto::norm::Update> out;
    EXPECT_TRUE(proto::norm::peek_header(payload).has_value());
    EXPECT_TRUE(proto::norm::for_each_update(
        payload, [&out](const proto::norm::Update& u) { out.push_back(u); }));
    return out;
  };
  for (std::size_t i = 0; i < live_output.payloads.size(); ++i) {
    const auto live = updates_of(live_output.payloads[i]);
    const auto replay = updates_of(replay_output.payloads[i]);
    ASSERT_EQ(live.size(), replay.size());
    for (std::size_t u = 0; u < live.size(); ++u) {
      EXPECT_EQ(live[u].symbol, replay[u].symbol);
      EXPECT_EQ(live[u].price, replay[u].price);
      EXPECT_EQ(live[u].quantity, replay[u].quantity);
      EXPECT_EQ(static_cast<int>(live[u].kind), static_cast<int>(replay[u].kind));
      EXPECT_EQ(live[u].exchange_time_ns, replay[u].exchange_time_ns);
    }
  }
}

TEST(Replay, SerializeRoundTrip) {
  FrameRecorder recorder;
  net::PacketFactory factory;
  for (int i = 0; i < 10; ++i) {
    recorder.record(factory.make(std::vector<std::byte>(64 + static_cast<std::size_t>(i),
                                                        static_cast<std::byte>(i)),
                                 sim::Time{i * 1'000}),
                    sim::Time{i * 1'000});
  }
  const auto blob = recorder.serialize();
  const auto restored = FrameRecorder::deserialize(blob);
  ASSERT_EQ(restored.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(restored[i].at, recorder.frames()[i].at);
    EXPECT_EQ(restored[i].frame, recorder.frames()[i].frame);
  }
}

TEST(Replay, DeserializeRejectsGarbage) {
  std::vector<std::byte> junk(16, std::byte{0x42});
  EXPECT_THROW((void)FrameRecorder::deserialize(junk), std::invalid_argument);
  FrameRecorder recorder;
  net::PacketFactory factory;
  recorder.record(factory.make(std::vector<std::byte>(64), sim::Time{}), sim::Time{});
  auto blob = recorder.serialize();
  blob.resize(blob.size() - 10);  // truncate
  EXPECT_THROW((void)FrameRecorder::deserialize(blob), std::invalid_argument);
}

TEST(Replay, SpeedScalesInterArrivalTimes) {
  sim::Engine engine;
  net::Nic out{engine, "src", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  std::vector<RecordedFrame> recording;
  recording.push_back({sim::Time{1'000'000}, std::vector<std::byte>(64)});
  recording.push_back({sim::Time{3'000'000}, std::vector<std::byte>(64)});
  FrameReplayer replayer{engine, out};
  (void)replayer.replay(recording, sim::Time::zero() + sim::micros(std::int64_t{10}),
                        /*speed=*/2.0);
  // First at 10 us; second 1 us later (2 us gap compressed by 2x).
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.now(), sim::Time::zero() + sim::micros(std::int64_t{10}));
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.now(), sim::Time::zero() + sim::micros(std::int64_t{11}));
  EXPECT_THROW((void)replayer.replay(recording, sim::Time::zero(), 0.0),
               std::invalid_argument);
}

TEST(Replay, EmptyRecordingIsANoop) {
  sim::Engine engine;
  net::Nic out{engine, "src", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  FrameReplayer replayer{engine, out};
  EXPECT_EQ(replayer.replay({}, sim::Time::zero()), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

}  // namespace
}  // namespace tsn::capture
