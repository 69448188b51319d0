#include "sim/engine.hpp"
#include "net/nic.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "telemetry/trace.hpp"

namespace tsn::net {
namespace {

struct TwoNics {
  sim::Engine engine;
  net::Fabric fabric{engine};
  Nic a{engine, "a", MacAddr::from_host_id(1), Ipv4Addr{10, 0, 0, 1}};
  Nic b{engine, "b", MacAddr::from_host_id(2), Ipv4Addr{10, 0, 0, 2}};
  Cable cable = fabric.connect(a, 0, b, 0, LinkConfig{});
};

std::vector<std::byte> frame_to(const Nic& from, const Nic& to) {
  return build_udp_frame(from.mac(), to.mac(), from.ip(), to.ip(), 1, 2,
                         std::vector<std::byte>(8, std::byte{1}));
}

TEST(Nic, DeliversToRxHandler) {
  TwoNics t;
  int received = 0;
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  t.a.send_frame(frame_to(t.a, t.b));
  t.engine.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(t.a.tx_frames(), 1u);
  EXPECT_EQ(t.b.rx_frames(), 1u);
}

TEST(Nic, FiltersForeignUnicastByDefault) {
  TwoNics t;
  int received = 0;
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  // Frame addressed to a third MAC: NIC b must drop it in hardware.
  auto frame = build_udp_frame(t.a.mac(), MacAddr::from_host_id(99), t.a.ip(),
                               Ipv4Addr{10, 0, 0, 99}, 1, 2, {});
  t.a.send_frame(std::move(frame));
  t.engine.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(t.b.rx_filtered(), 1u);
}

TEST(Nic, PromiscuousModeAcceptsEverything) {
  TwoNics t;
  int received = 0;
  t.b.set_promiscuous(true);
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  auto frame = build_udp_frame(t.a.mac(), MacAddr::from_host_id(99), t.a.ip(),
                               Ipv4Addr{10, 0, 0, 99}, 1, 2, {});
  t.a.send_frame(std::move(frame));
  t.engine.run();
  EXPECT_EQ(received, 1);
}

TEST(Nic, BroadcastAlwaysAccepted) {
  TwoNics t;
  int received = 0;
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  auto frame = build_udp_frame(t.a.mac(), MacAddr::broadcast(), t.a.ip(),
                               Ipv4Addr{10, 255, 255, 255}, 1, 2, {});
  t.a.send_frame(std::move(frame));
  t.engine.run();
  EXPECT_EQ(received, 1);
}

TEST(Nic, MulticastRequiresSubscription) {
  TwoNics t;
  int received = 0;
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  const Ipv4Addr group{239, 1, 1, 1};
  auto frame = build_multicast_frame(t.a.mac(), t.a.ip(), group, 30001, {});
  t.a.send_frame(std::vector<std::byte>{frame});
  t.engine.run();
  EXPECT_EQ(received, 0);

  t.b.subscribe_multicast_mac(multicast_mac(group));
  t.a.send_frame(std::move(frame));
  t.engine.run();
  EXPECT_EQ(received, 1);

  t.b.unsubscribe_multicast_mac(multicast_mac(group));
  t.a.send_frame(build_multicast_frame(t.a.mac(), t.a.ip(), group, 30001, {}));
  t.engine.run();
  EXPECT_EQ(received, 1);
}

TEST(Nic, RxDelayModelsSoftwareHop) {
  TwoNics t;
  sim::Time handled;
  t.b.set_rx_delay(sim::micros(std::int64_t{1}));
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { handled = t.engine.now(); });
  t.a.send_frame(frame_to(t.a, t.b));
  t.engine.run();
  // Wire time (64B min frame + overhead at 10G, 50 ns prop) plus the 1 us hop.
  EXPECT_GT(handled, sim::Time::zero() + sim::micros(std::int64_t{1}));
}

// A link's arrival time for `packet` handed over at `sent` on an idle link.
sim::Time link_arrival(const Link& link, const PacketPtr& packet, sim::Time sent) {
  return sent + link.serialization_delay(packet->wire_bytes()) + link.config().propagation;
}

TEST(NicSoftwareHop, OneEventPerFrameAndTheHandlerSeesTheLinkArrival) {
  sim::Engine engine;
  Fabric fabric{engine};
  Nic a{engine, "a", MacAddr::from_host_id(1), Ipv4Addr{10, 0, 0, 1}};
  Nic b{engine, "b", MacAddr::from_host_id(2), Ipv4Addr{10, 0, 0, 2}};
  const Cable cable = fabric.connect(a, 0, b, 0, LinkConfig{});
  const sim::Duration hop = sim::nanos(std::int64_t{700});
  b.set_rx_delay(hop);
  std::vector<sim::Time> arrivals;
  std::vector<sim::Time> handled;
  b.set_rx_handler([&](const PacketPtr&, sim::Time arrival) {
    arrivals.push_back(arrival);
    handled.push_back(engine.now());
  });
  telemetry::TraceSink sink;
  const telemetry::ScopedTraceSink attach{sink};
  const telemetry::TraceId trace = sink.begin_trace(engine.now());
  PacketPtr sent;
  {
    const telemetry::TraceScope scope{trace};
    sent = a.send_frame(frame_to(a, b));
  }
  engine.run();

  // The link's delivery and the software hop are one event.
  EXPECT_EQ(engine.events_fired(), 1u);
  const sim::Time arrival = link_arrival(*cable.a_to_b, sent, sim::Time::zero());
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], arrival);
  EXPECT_EQ(handled[0], arrival + hop);
  EXPECT_EQ(b.rx_frames(), 1u);
  bool saw_nic_span = false;
  for (const telemetry::Span& span : sink.trace(trace)) {
    if (span.kind != telemetry::SpanKind::kNicRx) continue;
    saw_nic_span = true;
    EXPECT_EQ(span.entity, "b");
    EXPECT_EQ(span.t_in, arrival);
    EXPECT_EQ(span.t_out, arrival + hop);
  }
  EXPECT_TRUE(saw_nic_span);

  // Back-to-back frames: still one event each.
  for (int i = 0; i < 4; ++i) a.send_frame(frame_to(a, b));
  engine.run();
  EXPECT_EQ(engine.events_fired(), 5u);
  EXPECT_EQ(handled.size(), 5u);
}

TEST(NicSoftwareHop, FilteredFramesAreCountedOnceAndNeverHandled) {
  TwoNics t;
  t.b.set_rx_delay(sim::micros(std::int64_t{1}));
  int received = 0;
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  t.a.send_frame(build_udp_frame(t.a.mac(), MacAddr::from_host_id(99), t.a.ip(),
                                 Ipv4Addr{10, 0, 0, 99}, 1, 2, {}));
  t.a.send_frame(build_multicast_frame(t.a.mac(), t.a.ip(), Ipv4Addr{239, 1, 1, 1}, 30001, {}));
  t.engine.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(t.b.rx_filtered(), 2u);
  EXPECT_EQ(t.b.rx_frames(), 0u);
  EXPECT_EQ(t.engine.events_fired(), 2u);
}

TEST(NicSoftwareHop, TheFilterRunsWhenSoftwareSeesTheFrame) {
  // The MAC filter runs at arrival + rx delay, not at arrival: a multicast
  // subscription made inside that window admits a frame already on the wire.
  TwoNics t;
  const sim::Duration hop = sim::micros(std::int64_t{1});
  t.b.set_rx_delay(hop);
  int received = 0;
  t.b.set_rx_handler([&](const PacketPtr&, sim::Time) { ++received; });
  const Ipv4Addr group{239, 1, 1, 1};
  const PacketPtr sent =
      t.a.send_frame(build_multicast_frame(t.a.mac(), t.a.ip(), group, 30001, {}));
  const sim::Time arrival = link_arrival(*t.cable.a_to_b, sent, sim::Time::zero());
  t.engine.schedule_at(arrival + hop / 2, [&t, group] {
    t.b.subscribe_multicast_mac(multicast_mac(group));
  });
  t.engine.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(t.b.rx_filtered(), 0u);
}

TEST(NicSoftwareHop, SameInstantDeliveriesFireInHandOverOrder) {
  // Events for one picosecond fire in the order their sequence numbers were
  // drawn. A folded delivery draws its number when the frame is handed to
  // the link, not when it arrives: two frames that reach software in the
  // same picosecond run in the order they were handed over, whatever their
  // links' delays, and an event scheduled for that picosecond while either
  // frame was in flight runs after both.
  sim::Engine engine;
  Fabric fabric{engine};
  Nic tx{engine, "tx", MacAddr::from_host_id(1), Ipv4Addr{10, 0, 0, 1}};
  Nic slow_tx{engine, "slow-tx", MacAddr::from_host_id(2), Ipv4Addr{10, 0, 0, 2}};
  Nic near{engine, "near", MacAddr::from_host_id(3), Ipv4Addr{10, 0, 0, 3}};
  Nic far{engine, "far", MacAddr::from_host_id(4), Ipv4Addr{10, 0, 0, 4}};
  LinkConfig short_cable;
  short_cable.propagation = sim::nanos(std::int64_t{100});
  LinkConfig long_cable;
  long_cable.propagation = sim::nanos(std::int64_t{1'000});
  const Cable to_near = fabric.connect(tx, 0, near, 0, short_cable);
  const Cable to_far = fabric.connect(slow_tx, 0, far, 0, long_cable);
  // Same frame size on both links, so both reach software at
  // serialization + 1,100 ns.
  near.set_rx_delay(sim::nanos(std::int64_t{1'000}));
  far.set_rx_delay(sim::nanos(std::int64_t{100}));
  std::vector<std::string> order;
  std::vector<sim::Time> at;
  near.set_rx_handler([&](const PacketPtr&, sim::Time) {
    order.emplace_back("near");
    at.push_back(engine.now());
  });
  far.set_rx_handler([&](const PacketPtr&, sim::Time) {
    order.emplace_back("far");
    at.push_back(engine.now());
  });
  // Handed over first on the long cable, so "far" arrives last but its
  // software runs first.
  const PacketPtr first = slow_tx.send_frame(frame_to(slow_tx, far));
  const PacketPtr second = tx.send_frame(frame_to(tx, near));
  const sim::Time software =
      link_arrival(*to_far.a_to_b, first, sim::Time::zero()) + sim::nanos(std::int64_t{100});
  ASSERT_EQ(link_arrival(*to_near.a_to_b, second, sim::Time::zero()) +
                sim::nanos(std::int64_t{1'000}),
            software);
  // Scheduled mid-flight for the same picosecond: after both deliveries.
  engine.schedule_at(sim::Time::zero() + sim::nanos(std::int64_t{50}), [&] {
    engine.schedule_at(software, [&] {
      order.emplace_back("timer");
      at.push_back(engine.now());
    });
  });
  engine.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "far");
  EXPECT_EQ(order[1], "near");
  EXPECT_EQ(order[2], "timer");
  EXPECT_EQ(at[0], software);
  EXPECT_EQ(at[1], software);
  EXPECT_EQ(at[2], software);
}

TEST(Nic, UnpluggedNicDropsSilently) {
  sim::Engine engine;
  Nic lonely{engine, "x", MacAddr::from_host_id(5), Ipv4Addr{10, 0, 0, 5}};
  lonely.send_frame(std::vector<std::byte>(64, std::byte{0}));
  engine.run();
  EXPECT_EQ(lonely.tx_frames(), 0u);
}

TEST(Host, AddNicAppliesSoftwareLatency) {
  sim::Engine engine;
  Host host{engine, "server", sim::micros(std::int64_t{2})};
  Nic& nic = host.add_nic("md", MacAddr::from_host_id(8), Ipv4Addr{10, 0, 0, 8});
  EXPECT_EQ(host.nic_count(), 1u);
  EXPECT_EQ(&host.nic(0), &nic);
  EXPECT_EQ(host.software_latency(), sim::micros(std::int64_t{2}));
  EXPECT_EQ(nic.name(), "server/md");
}

TEST(Host, SeparateNicsPerFunctionLikeFigure1d) {
  sim::Engine engine;
  Host host{engine, "server", sim::micros(std::int64_t{1})};
  host.add_nic("mgmt", MacAddr::from_host_id(10), Ipv4Addr{192, 168, 0, 1});
  host.add_nic("md", MacAddr::from_host_id(11), Ipv4Addr{10, 0, 0, 11});
  host.add_nic("orders", MacAddr::from_host_id(12), Ipv4Addr{10, 0, 1, 11});
  EXPECT_EQ(host.nic_count(), 3u);
  EXPECT_NE(host.nic(0).mac(), host.nic(1).mac());
  EXPECT_NE(host.nic(1).ip(), host.nic(2).ip());
}

}  // namespace
}  // namespace tsn::net
