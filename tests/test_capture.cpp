#include "sim/engine.hpp"
#include "capture/tap.hpp"

#include <gtest/gtest.h>

#include "net/headers.hpp"
#include "net/nic.hpp"

namespace tsn::capture {
namespace {

// a --- tap --- b
struct TapRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  net::Nic a{engine, "a", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic b{engine, "b", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};
  Tap tap;

  explicit TapRig(CaptureClock clock = {}) : tap(engine, "tap", clock) {
    fabric.connect(a, 0, tap, 0, net::LinkConfig{});
    fabric.connect(tap, 1, b, 0, net::LinkConfig{});
  }

  void send_a_to_b() {
    a.send_frame(net::build_udp_frame(a.mac(), b.mac(), a.ip(), b.ip(), 1, 2,
                                      std::vector<std::byte>(32, std::byte{9})));
  }
};

TEST(Tap, PassesTrafficThroughBothDirections) {
  TapRig rig;
  int got_b = 0;
  int got_a = 0;
  rig.b.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got_b; });
  rig.a.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got_a; });
  rig.send_a_to_b();
  rig.engine.run();
  EXPECT_EQ(got_b, 1);
  rig.b.send_frame(net::build_udp_frame(rig.b.mac(), rig.a.mac(), rig.b.ip(), rig.a.ip(), 2, 1,
                                        {}));
  rig.engine.run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(rig.tap.records().size(), 2u);
  EXPECT_EQ(rig.tap.records()[0].port, 0u);
  EXPECT_EQ(rig.tap.records()[1].port, 1u);
}

TEST(Tap, RecordsCarrySizesAndIds) {
  TapRig rig;
  rig.b.set_rx_handler([&](const net::PacketPtr& p, sim::Time) {
    ASSERT_EQ(rig.tap.records().size(), 1u);
    EXPECT_EQ(rig.tap.records()[0].packet_id, p->id());
    EXPECT_EQ(rig.tap.records()[0].frame_bytes, p->size_bytes());
  });
  rig.send_a_to_b();
  rig.engine.run();
}

TEST(Tap, PerfectClockStampsTruth) {
  TapRig rig;
  rig.send_a_to_b();
  rig.engine.run();
  ASSERT_EQ(rig.tap.records().size(), 1u);
  EXPECT_EQ(rig.tap.records()[0].stamped_time, rig.tap.records()[0].true_time);
}

TEST(Tap, ImperfectClockShowsOffsetAndJitter) {
  const CaptureClock skewed{sim::nanos(std::int64_t{10}), 0.0, sim::picos(50), 7};
  TapRig rig{skewed};
  for (int i = 0; i < 50; ++i) rig.send_a_to_b();
  rig.engine.run();
  ASSERT_EQ(rig.tap.records().size(), 50u);
  double total_error_ps = 0.0;
  for (const auto& record : rig.tap.records()) {
    const auto err = record.stamped_time - record.true_time;
    total_error_ps += static_cast<double>(err.picos());
  }
  // Mean error approximates the configured 10 ns offset.
  EXPECT_NEAR(total_error_ps / 50.0, 10'000.0, 100.0);
}

TEST(Tap, DriftAccumulatesOverTime) {
  // 100 ppb drift over 10 simulated seconds = 1 us of error.
  CaptureClock drifty{sim::Duration::zero(), 100.0, sim::Duration::zero(), 1};
  const auto early = drifty.stamp(sim::Time::zero() + sim::seconds(std::int64_t{1}));
  const auto late = drifty.stamp(sim::Time::zero() + sim::seconds(std::int64_t{10}));
  const auto early_err = early - (sim::Time::zero() + sim::seconds(std::int64_t{1}));
  const auto late_err = late - (sim::Time::zero() + sim::seconds(std::int64_t{10}));
  EXPECT_NEAR(static_cast<double>(early_err.picos()), 100e3, 1.0);   // 100 ns
  EXPECT_NEAR(static_cast<double>(late_err.picos()), 1000e3, 1.0);  // 1 us
}

}  // namespace
}  // namespace tsn::capture
