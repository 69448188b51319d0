#include "sim/engine.hpp"
#include "net/link.hpp"

#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace tsn::net {
namespace {

class RecordingDevice final : public Device {
 public:
  explicit RecordingDevice(sim::Engine& engine) : engine_(engine) {}

  void receive(const PacketPtr& packet, PortId port) override {
    arrivals.emplace_back(engine_.now(), packet->id());
    last_port = port;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "recorder"; }

  std::vector<std::pair<sim::Time, std::uint64_t>> arrivals;
  PortId last_port = 0;

 private:
  sim::Engine& engine_;
};

PacketPtr make_packet(PacketFactory& factory, std::size_t frame_bytes, sim::Time at) {
  return factory.make(std::vector<std::byte>(frame_bytes, std::byte{0}), at);
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 10'000'000'000;  // 10 GbE
  config.propagation = sim::nanos(std::int64_t{100});
  Link link{engine, "l", config};
  link.connect_to(sink, 3);
  PacketFactory factory;
  // 105 frame bytes + 20 wire overhead = 1000 bits -> 100 ns at 10 Gb/s.
  link.transmit(make_packet(factory, 105, engine.now()));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::zero() + sim::nanos(std::int64_t{200}));
  EXPECT_EQ(sink.last_port, 3u);
}

TEST(Link, InfiniteRateSkipsSerialization) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 0;
  config.propagation = sim::nanos(std::int64_t{10});
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  link.transmit(make_packet(factory, 1500, engine.now()));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, sim::Time::zero() + sim::nanos(std::int64_t{10}));
}

TEST(Link, BackToBackFramesQueueBehindEachOther) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 10'000'000'000;
  config.propagation = sim::Duration::zero();
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  // Two 105-byte frames (100 ns serialization each) handed over together:
  // the second starts only after the first finishes.
  link.transmit(make_packet(factory, 105, engine.now()));
  link.transmit(make_packet(factory, 105, engine.now()));
  engine.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].first.nanos(), 100.0);
  EXPECT_EQ(sink.arrivals[1].first.nanos(), 200.0);
  EXPECT_GT(link.stats().max_queue_delay, sim::Duration::zero());
}

TEST(Link, QueueOverflowDropsTail) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 1'000'000'000;  // 1 Gb/s: slow, so backlog builds
  config.queue_capacity_bytes = 3000;
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  for (int i = 0; i < 10; ++i) link.transmit(make_packet(factory, 1500, engine.now()));
  engine.run();
  EXPECT_GT(link.stats().frames_dropped_queue, 0u);
  EXPECT_LT(sink.arrivals.size(), 10u);
  EXPECT_EQ(sink.arrivals.size() + link.stats().frames_dropped_queue, 10u);
}

TEST(Link, RandomLossDropsExpectedFraction) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 0;
  config.loss_probability = 0.3;
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  constexpr int kFrames = 10'000;
  for (int i = 0; i < kFrames; ++i) link.transmit(make_packet(factory, 100, engine.now()));
  engine.run();
  const double loss_rate = static_cast<double>(link.stats().frames_dropped_loss) / kFrames;
  EXPECT_NEAR(loss_rate, 0.3, 0.02);
}

TEST(Link, StatsCountBytesAndFrames) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  Link link{engine, "l", LinkConfig{}};
  link.connect_to(sink, 0);
  PacketFactory factory;
  link.transmit(make_packet(factory, 100, engine.now()));
  link.transmit(make_packet(factory, 200, engine.now()));
  engine.run();
  EXPECT_EQ(link.stats().frames_delivered, 2u);
  EXPECT_EQ(link.stats().bytes_delivered, 300u);
}

TEST(Link, LossAccountingIsExact) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 0;
  config.loss_probability = 0.25;
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  constexpr std::uint64_t kFrames = 5'000;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    link.transmit(make_packet(factory, 100, engine.now()));
  }
  engine.run();
  // Every frame is either delivered or counted lost — nothing vanishes.
  EXPECT_EQ(link.stats().frames_delivered + link.stats().frames_dropped_loss, kFrames);
  EXPECT_EQ(sink.arrivals.size(), link.stats().frames_delivered);
  EXPECT_GT(link.stats().frames_dropped_loss, 0u);
}

TEST(Link, TailDropTriggersExactlyAtQueueCapacity) {
  // 8 Gb/s makes one byte exactly one nanosecond of wire time, so the
  // backlog-in-bytes arithmetic has no rounding: a 100-byte frame (120
  // wire bytes) leaves a 120-byte backlog the instant after transmit.
  PacketFactory factory;
  auto run_with_capacity = [&](std::size_t capacity) {
    sim::Engine engine;
    RecordingDevice sink{engine};
    LinkConfig config;
    config.rate_bps = 8'000'000'000;
    config.queue_capacity_bytes = capacity;
    Link link{engine, "l", config};
    link.connect_to(sink, 0);
    link.transmit(make_packet(factory, 100, engine.now()));
    link.transmit(make_packet(factory, 100, engine.now()));
    engine.run();
    return link.stats().frames_dropped_queue;
  };
  // backlog 120 + frame 100 = 220: fits at exactly 220, tail-drops at 219.
  EXPECT_EQ(run_with_capacity(220), 0u);
  EXPECT_EQ(run_with_capacity(219), 1u);
}

TEST(Link, MaxQueueDelayIsMonotoneAndMatchesWorstBacklog) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 8'000'000'000;  // 120 ns per 100-byte frame
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  sim::Duration previous = sim::Duration::zero();
  sim::Duration worst_backlog = sim::Duration::zero();
  for (int i = 0; i < 6; ++i) {
    const sim::Duration backlog = link.current_backlog();
    if (backlog > worst_backlog) worst_backlog = backlog;
    link.transmit(make_packet(factory, 100, engine.now()));
    EXPECT_GE(link.stats().max_queue_delay, previous);
    previous = link.stats().max_queue_delay;
  }
  // The recorded high-water mark is exactly the worst backlog any frame
  // saw at hand-off: 5 frames ahead x 120 ns each.
  EXPECT_EQ(link.stats().max_queue_delay, worst_backlog);
  EXPECT_EQ(link.stats().max_queue_delay, sim::nanos(std::int64_t{600}));
  engine.run();
}

TEST(Link, AdminDownDropsUntilBroughtBackUp) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 0;
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  EXPECT_TRUE(link.admin_up());
  link.set_admin_up(false);
  link.transmit(make_packet(factory, 100, engine.now()));
  link.transmit(make_packet(factory, 100, engine.now()));
  engine.run();
  EXPECT_EQ(link.stats().frames_dropped_down, 2u);
  EXPECT_EQ(link.stats().frames_delivered, 0u);
  link.set_admin_up(true);
  link.transmit(make_packet(factory, 100, engine.now()));
  engine.run();
  EXPECT_EQ(link.stats().frames_delivered, 1u);
  EXPECT_EQ(link.stats().frames_dropped_down, 2u);
}

TEST(Link, LossOverrideBeatsConfigUntilCleared) {
  sim::Engine engine;
  RecordingDevice sink{engine};
  LinkConfig config;
  config.rate_bps = 0;
  config.loss_probability = 0.0;
  Link link{engine, "l", config};
  link.connect_to(sink, 0);
  PacketFactory factory;
  EXPECT_EQ(link.effective_loss(), 0.0);
  link.set_loss_override(1.0);  // certain loss, regardless of config
  EXPECT_EQ(link.effective_loss(), 1.0);
  link.transmit(make_packet(factory, 100, engine.now()));
  engine.run();
  EXPECT_EQ(link.stats().frames_dropped_loss, 1u);
  EXPECT_EQ(link.stats().frames_delivered, 0u);
  link.set_loss_override(-1.0);  // back to the configured (lossless) rate
  EXPECT_EQ(link.effective_loss(), 0.0);
  link.transmit(make_packet(factory, 100, engine.now()));
  engine.run();
  EXPECT_EQ(link.stats().frames_delivered, 1u);
  EXPECT_EQ(link.stats().frames_dropped_loss, 1u);
}

TEST(Link, SerializationDelayScalesWithRateAndSize) {
  sim::Engine engine;
  LinkConfig config;
  config.rate_bps = 10'000'000'000;
  Link link{engine, "l", config};
  // §5: processing Ethernet+IP+TCP headers at 10 Gb/s costs ~40 ns; the
  // matching wire-time claim: 54 header bytes short of data = 43.2 ns.
  EXPECT_NEAR(link.serialization_delay(54).nanos(), 43.2, 0.01);
  EXPECT_NEAR(link.serialization_delay(1500).nanos(), 1200.0, 0.01);
  LinkConfig fast = config;
  fast.rate_bps = 100'000'000'000;
  Link link100{engine, "l100", fast};
  EXPECT_NEAR(link100.serialization_delay(1500).nanos(), 120.0, 0.01);
}

}  // namespace
}  // namespace tsn::net
