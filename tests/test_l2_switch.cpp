#include "sim/engine.hpp"
#include "l2/commodity_switch.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mcast/subscribe.hpp"
#include "net/fabric.hpp"
#include "net/stack.hpp"
#include "telemetry/trace.hpp"

namespace tsn::l2 {
namespace {

// A switch with N hosts hanging off it.
struct SwitchRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  CommoditySwitch sw;
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::vector<net::Cable> cables;  // a_to_b leaves the switch, b_to_a enters it

  explicit SwitchRig(CommoditySwitchConfig config = {}, std::size_t hosts = 4)
      : sw(engine, "sw", config) {
    for (std::size_t i = 0; i < hosts; ++i) {
      auto nic = std::make_unique<net::Nic>(engine, "h" + std::to_string(i),
                                            net::MacAddr::from_host_id(static_cast<std::uint32_t>(i + 1)),
                                            net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(i + 1)});
      cables.push_back(fabric.connect(sw, static_cast<net::PortId>(i), *nic, 0, net::LinkConfig{}));
      sw.bind_host(nic->ip(), nic->mac(), static_cast<net::PortId>(i));
      nics.push_back(std::move(nic));
    }
  }

  net::Nic& nic(std::size_t i) { return *nics[i]; }
};

std::vector<std::byte> udp_to(net::Nic& from, net::Ipv4Addr dst_ip) {
  // Deliberately wrong dst MAC: the switch routes on IP and rewrites.
  return net::build_udp_frame(from.mac(), net::MacAddr::from_host_id(0xdead), from.ip(), dst_ip,
                              1000, 2000, std::vector<std::byte>(16, std::byte{7}));
}

// A link's arrival time for `packet` handed over at `sent` on an idle link.
sim::Time link_arrival(const net::Link& link, const net::PacketPtr& packet, sim::Time sent) {
  return sent + link.serialization_delay(packet->wire_bytes()) + link.config().propagation;
}

// The kSwitch spans of one trace, as [t_in, t_out] pairs.
std::vector<std::pair<sim::Time, sim::Time>> switch_spans(const telemetry::TraceSink& sink,
                                                          telemetry::TraceId trace) {
  std::vector<std::pair<sim::Time, sim::Time>> out;
  for (const telemetry::Span& span : sink.trace(trace)) {
    if (span.kind == telemetry::SpanKind::kSwitch) out.emplace_back(span.t_in, span.t_out);
  }
  return out;
}

TEST(CommoditySwitch, RoutesUnicastByIpAndRewritesMac) {
  SwitchRig rig;
  int got = 0;
  rig.nic(2).set_rx_handler([&](const net::PacketPtr& p, sim::Time) {
    ++got;
    const auto decoded = net::decode_frame(p->frame());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->eth.dst, rig.nic(2).mac());  // rewritten on last hop
  });
  rig.nic(0).send_frame(udp_to(rig.nic(0), rig.nic(2).ip()));
  rig.engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rig.sw.stats().unicast_forwarded, 1u);
}

TEST(CommoditySwitch, ForwardingLatencyIsCharged) {
  static_assert(kSwitchForwardingLatency == sim::nanos(std::int64_t{500}));
  SwitchRig rig;
  sim::Time direct_estimate;
  sim::Time arrival;
  rig.nic(1).set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  rig.nic(0).send_frame(udp_to(rig.nic(0), rig.nic(1).ip()));
  rig.engine.run();
  // Two link traversals (~50 ns prop each + serialization) + 500 ns pipeline.
  direct_estimate = sim::Time::zero() + kSwitchForwardingLatency;
  EXPECT_GT(arrival, direct_estimate);
  EXPECT_LT(arrival, sim::Time::zero() + sim::micros(std::int64_t{2}));
}

TEST(CommoditySwitch, NoRouteDrops) {
  SwitchRig rig;
  rig.nic(0).send_frame(udp_to(rig.nic(0), net::Ipv4Addr{172, 16, 0, 1}));
  rig.engine.run();
  EXPECT_EQ(rig.sw.stats().no_route_drops, 1u);
}

TEST(CommoditySwitch, EcmpIsFlowStable) {
  // Two parallel routes for one prefix: all frames of one flow take the
  // same path (no reordering), verified by the hash being deterministic.
  sim::Engine engine;
  net::Fabric fabric{engine};
  CommoditySwitchConfig config;
  CommoditySwitch sw{engine, "sw", config};
  net::Nic a{engine, "a", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic left{engine, "left", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 1, 0, 1}};
  net::Nic right{engine, "right", net::MacAddr::from_host_id(3), net::Ipv4Addr{10, 1, 0, 2}};
  fabric.connect(sw, 0, a, 0, net::LinkConfig{});
  fabric.connect(sw, 1, left, 0, net::LinkConfig{});
  fabric.connect(sw, 2, right, 0, net::LinkConfig{});
  sw.add_route(net::Ipv4Addr{10, 1, 0, 0}, 16, 1);
  sw.add_route(net::Ipv4Addr{10, 1, 0, 0}, 16, 2);
  left.set_promiscuous(true);
  right.set_promiscuous(true);
  int left_count = 0;
  int right_count = 0;
  left.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++left_count; });
  right.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++right_count; });
  for (int i = 0; i < 10; ++i) {
    a.send_frame(net::build_udp_frame(a.mac(), net::MacAddr::from_host_id(0xbb), a.ip(),
                                      net::Ipv4Addr{10, 1, 0, 9}, 5000, 6000, {}));
  }
  engine.run();
  // Same 5-tuple every time: one path gets all 10.
  EXPECT_TRUE((left_count == 10 && right_count == 0) ||
              (left_count == 0 && right_count == 10));
}

TEST(CommoditySwitch, LongestPrefixMatchWins) {
  SwitchRig rig;
  // /32 host routes already exist; add a /8 blackhole toward port 3 and
  // verify the /32 still wins.
  rig.sw.add_route(net::Ipv4Addr{10, 0, 0, 0}, 8, 3);
  int got = 0;
  rig.nic(1).set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got; });
  rig.nic(0).send_frame(udp_to(rig.nic(0), rig.nic(1).ip()));
  rig.engine.run();
  EXPECT_EQ(got, 1);
}

TEST(CommoditySwitch, MulticastDeliversToJoinedPortsOnly) {
  SwitchRig rig;
  const net::Ipv4Addr group{239, 1, 1, 1};
  int got2 = 0;
  int got3 = 0;
  rig.nic(2).set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got2; });
  rig.nic(3).set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got3; });
  mcast::join_group(rig.nic(2), group);
  rig.engine.run();  // let the IGMP join program the switch
  EXPECT_EQ(rig.sw.mroutes().group_count(), 1u);
  rig.nic(0).send_frame(
      net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), group, 30001, {}));
  rig.engine.run();
  EXPECT_EQ(got2, 1);
  EXPECT_EQ(got3, 0);
  EXPECT_EQ(rig.sw.stats().multicast_hw_forwarded, 1u);
}

TEST(CommoditySwitch, UnknownGroupDroppedWhenNotFlooding) {
  SwitchRig rig;
  rig.nic(0).send_frame(net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(),
                                                   net::Ipv4Addr{239, 9, 9, 9}, 30001, {}));
  rig.engine.run();
  EXPECT_EQ(rig.sw.stats().no_group_drops, 1u);
}

TEST(CommoditySwitch, IgmpLeaveStopsDelivery) {
  SwitchRig rig;
  const net::Ipv4Addr group{239, 1, 1, 2};
  int got = 0;
  rig.nic(1).set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got; });
  mcast::join_group(rig.nic(1), group);
  rig.engine.run();
  rig.nic(1).send_frame(mcast::build_igmp_frame(
      rig.nic(1).mac(), rig.nic(1).ip(), mcast::IgmpMessage{mcast::IgmpType::kLeaveGroup, group}));
  rig.engine.run();
  rig.nic(0).send_frame(
      net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), group, 30001, {}));
  rig.engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(rig.sw.mroutes().group_count(), 0u);
}

TEST(CommoditySwitch, SoftwareFallbackAddsLatencyAndDrops) {
  static_assert(kSoftwareServiceTime == sim::micros(std::int64_t{40}));
  CommoditySwitchConfig config;
  config.mroute_hardware_capacity = 1;
  SwitchRig rig{config};
  const net::Ipv4Addr hw_group{239, 1, 0, 1};
  const net::Ipv4Addr sw_group{239, 1, 0, 2};
  rig.sw.join_group(hw_group, 1);
  rig.sw.join_group(sw_group, 2);  // overflows into software
  ASSERT_TRUE(rig.sw.mroutes().overflowed());

  sim::Time hw_arrival;
  sim::Time sw_arrival;
  rig.nic(1).subscribe_multicast_mac(net::multicast_mac(hw_group));
  rig.nic(2).subscribe_multicast_mac(net::multicast_mac(sw_group));
  rig.nic(1).set_rx_handler([&](const net::PacketPtr&, sim::Time at) { hw_arrival = at; });
  rig.nic(2).set_rx_handler([&](const net::PacketPtr&, sim::Time at) { sw_arrival = at; });
  rig.nic(0).send_frame(
      net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), hw_group, 30001, {}));
  rig.nic(0).send_frame(
      net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), sw_group, 30001, {}));
  rig.engine.run();
  // Software path is dramatically slower (§3: "cripples performance").
  EXPECT_GT(sw_arrival - hw_arrival, sim::micros(std::int64_t{30}));

  // Flood the software path past its queue: the overflow must drop.
  for (std::size_t i = 0; i < kSoftwareQueuePackets + 50; ++i) {
    rig.nic(0).send_frame(
        net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), sw_group, 30001, {}));
  }
  rig.engine.run();
  EXPECT_GT(rig.sw.stats().software_queue_drops, 0u);
}

TEST(CommoditySwitch, HairpinDropCounted) {
  SwitchRig rig;
  // Route dst back out the ingress port: misconfiguration is dropped.
  rig.nic(0).send_frame(udp_to(rig.nic(0), rig.nic(0).ip()));
  rig.engine.run();
  EXPECT_EQ(rig.sw.stats().no_route_drops, 1u);
}

// Three traced frames fan out to three receivers while one egress port is
// stalled. The switch and link spans and the deliveries must come in the
// order the switch produced when it scheduled one event per egress port.
TEST(CommoditySwitch, StalledFanOutKeepsSpanAndDeliveryOrder) {
  SwitchRig rig;
  const net::Ipv4Addr group{239, 1, 1, 7};
  // Joined out of port order: the fan-out follows the mroute's join order.
  for (std::size_t r : {3, 1, 2}) mcast::join_group(rig.nic(r), group);
  rig.engine.run();
  // Times below are offsets from the end of set-up, so they do not encode
  // how long the IGMP reports took to program the switch.
  const sim::Time t0 = rig.engine.now();

  std::vector<std::string> deliveries;
  for (std::size_t r = 1; r <= 3; ++r) {
    rig.nic(r).set_rx_handler([&deliveries, r, t0](const net::PacketPtr& p, sim::Time at) {
      deliveries.push_back("h" + std::to_string(r) + " #" + std::to_string(p->id()) + " @" +
                           std::to_string((at - t0).picos()));
    });
  }
  telemetry::TraceSink sink;
  telemetry::ScopedTraceSink scoped{sink};
  rig.sw.stall_port(1, sim::nanos(std::int64_t{2'000}));
  const std::vector<std::byte> payload(8, std::byte{0x11});
  for (int i = 0; i < 3; ++i) {
    telemetry::TraceScope trace{sink.begin_trace(rig.engine.now())};
    rig.nic(0).send_frame(
        net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), group, 30001, payload));
  }
  rig.engine.run();

  std::vector<std::string> spans;
  for (const auto& span : sink.spans()) {
    if (span.kind != telemetry::SpanKind::kSwitch && span.kind != telemetry::SpanKind::kLink) {
      continue;
    }
    spans.push_back(std::to_string(span.trace) + " " + span.entity + " " +
                    std::string{telemetry::span_kind_name(span.kind)} + " " +
                    std::to_string((span.t_in - t0).picos()) + "-" +
                    std::to_string((span.t_out - t0).picos()));
  }
  // Recorded from the one-event-per-port switch. Port 1 is stalled until
  // t0 + 2,000,000 ps, so its three copies leave after the other ports' in
  // order.
  const std::vector<std::string> expected_spans = {
      "1 h0->sw link 0-117200",
      "2 h0->sw link 0-184400",
      "3 h0->sw link 0-251600",
      "1 sw switch 117200-617200",
      "1 sw->h3 link 617200-734400",
      "1 sw switch 117200-617200",
      "1 sw switch 117200-617200",
      "1 sw->h2 link 617200-734400",
      "2 sw switch 184400-684400",
      "2 sw->h3 link 684400-801600",
      "2 sw switch 184400-684400",
      "2 sw switch 184400-684400",
      "2 sw->h2 link 684400-801600",
      "3 sw switch 251600-751600",
      "3 sw->h3 link 751600-868800",
      "3 sw switch 251600-751600",
      "3 sw switch 251600-751600",
      "3 sw->h2 link 751600-868800",
      "1 sw->h1 link 2000000-2117200",
      "2 sw->h1 link 2000000-2184400",
      "3 sw->h1 link 2000000-2251600",
  };
  const std::vector<std::string> expected_deliveries = {
      "h3 #1 @734400",
      "h2 #1 @734400",
      "h3 #2 @801600",
      "h2 #2 @801600",
      "h3 #3 @868800",
      "h2 #3 @868800",
      "h1 #1 @2117200",
      "h1 #2 @2184400",
      "h1 #3 @2251600",
  };
  EXPECT_EQ(spans, expected_spans);
  EXPECT_EQ(deliveries, expected_deliveries);
  EXPECT_EQ(rig.sw.stats().replications, 9u);
  EXPECT_EQ(rig.sw.stats().frames_stalled, 3u);
}

TEST(SwitchPipeline, UnicastHopIsOneEventAndKeepsItsTimes) {
  // NIC -> link -> switch (MAC rewrite) -> link -> NIC: the link's delivery
  // into the switch and the pipeline are one event at arrival + 500 ns, and
  // the link into the receiving NIC (no software hop) is the other.
  SwitchRig rig;
  telemetry::TraceSink sink;
  const telemetry::ScopedTraceSink attach{sink};
  std::vector<sim::Time> delivered;
  rig.nic(2).set_rx_handler([&](const net::PacketPtr& p, sim::Time at) {
    EXPECT_EQ(p->ethernet()->dst, rig.nic(2).mac());
    delivered.push_back(at);
  });
  const telemetry::TraceId trace = sink.begin_trace(rig.engine.now());
  net::PacketPtr sent;
  {
    const telemetry::TraceScope scope{trace};
    sent = rig.nic(0).send_frame(udp_to(rig.nic(0), rig.nic(2).ip()));
  }
  rig.engine.run();

  EXPECT_EQ(rig.engine.events_fired(), 2u);
  const sim::Time rx = link_arrival(*rig.cables[0].b_to_a, sent, sim::Time::zero());
  const sim::Time egress = rx + kSwitchForwardingLatency;
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], link_arrival(*rig.cables[2].a_to_b, sent, egress));
  const std::vector<std::pair<sim::Time, sim::Time>> expected{{rx, egress}};
  EXPECT_EQ(switch_spans(sink, trace), expected);
  EXPECT_EQ(rig.sw.stats().unicast_forwarded, 1u);
}

TEST(SwitchPipeline, MulticastFanOutIsOneEventAndKeepsItsTimes) {
  SwitchRig rig;
  const net::Ipv4Addr group{239, 1, 1, 3};
  for (std::size_t r : {1, 2, 3}) mcast::join_group(rig.nic(r), group);
  rig.engine.run();
  const sim::Time t0 = rig.engine.now();
  const std::uint64_t events_before = rig.engine.events_fired();
  std::vector<std::pair<std::size_t, sim::Time>> delivered;
  for (std::size_t r : {1, 2, 3}) {
    rig.nic(r).set_rx_handler(
        [&delivered, r](const net::PacketPtr&, sim::Time at) { delivered.emplace_back(r, at); });
  }
  telemetry::TraceSink sink;
  const telemetry::ScopedTraceSink attach{sink};
  const telemetry::TraceId trace = sink.begin_trace(t0);
  net::PacketPtr sent;
  {
    const telemetry::TraceScope scope{trace};
    sent = rig.nic(0).send_frame(
        net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), group, 30001, {}));
  }
  rig.engine.run();

  // One event into and through the switch, one per receiving NIC.
  EXPECT_EQ(rig.engine.events_fired() - events_before, 4u);
  const sim::Time rx = link_arrival(*rig.cables[0].b_to_a, sent, t0);
  const sim::Time egress = rx + kSwitchForwardingLatency;
  const std::vector<std::pair<std::size_t, sim::Time>> expected_deliveries{
      {1, link_arrival(*rig.cables[1].a_to_b, sent, egress)},
      {2, link_arrival(*rig.cables[2].a_to_b, sent, egress)},
      {3, link_arrival(*rig.cables[3].a_to_b, sent, egress)},
  };
  EXPECT_EQ(delivered, expected_deliveries);
  const std::vector<std::pair<sim::Time, sim::Time>> expected_spans(3, {rx, egress});
  EXPECT_EQ(switch_spans(sink, trace), expected_spans);
  EXPECT_EQ(rig.sw.stats().replications, 3u);
}

TEST(SwitchPipeline, AdminStateDecidesAtThePipelinesEnd) {
  // Every ingress decision is made when the pipeline ends, 500 ns after the
  // frame arrives: a switch taken down inside that window drops a frame it
  // had already started to receive.
  SwitchRig rig;
  int got = 0;
  rig.nic(1).set_rx_handler([&got](const net::PacketPtr&, sim::Time) { ++got; });
  const net::PacketPtr sent = rig.nic(0).send_frame(udp_to(rig.nic(0), rig.nic(1).ip()));
  const sim::Time rx = link_arrival(*rig.cables[0].b_to_a, sent, sim::Time::zero());
  rig.engine.schedule_at(rx + kSwitchForwardingLatency / 2,
                         [&rig] { rig.sw.set_admin_up(false); });
  rig.engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(rig.sw.stats().admin_down_drops, 1u);
  EXPECT_EQ(rig.sw.stats().unicast_forwarded, 0u);
}

TEST(SwitchPipeline, SoftwarePathQueuesFromArrival) {
  // The software queue is booked from each frame's arrival, not from the
  // pipeline's end: the first frame finishes service 40 us after it arrived,
  // the next one 40 us after that, and the frame that finds
  // kSoftwareQueuePackets frames waiting is dropped.
  CommoditySwitchConfig config;
  config.mroute_hardware_capacity = 1;
  SwitchRig rig{config};
  const net::Ipv4Addr sw_group{239, 1, 0, 2};
  rig.sw.join_group(net::Ipv4Addr{239, 1, 0, 1}, 1);
  rig.sw.join_group(sw_group, 2);  // overflows into software
  ASSERT_TRUE(rig.sw.mroutes().overflowed());
  rig.nic(2).subscribe_multicast_mac(net::multicast_mac(sw_group));
  std::vector<sim::Time> delivered;
  rig.nic(2).set_rx_handler(
      [&delivered](const net::PacketPtr&, sim::Time at) { delivered.push_back(at); });
  telemetry::TraceSink sink;
  const telemetry::ScopedTraceSink attach{sink};
  const auto frame =
      net::build_multicast_frame(rig.nic(0).mac(), rig.nic(0).ip(), sw_group, 30001, {});
  std::vector<telemetry::TraceId> traces;
  std::vector<net::PacketPtr> sent;
  for (int i = 0; i < 2; ++i) {
    traces.push_back(sink.begin_trace(rig.engine.now()));
    const telemetry::TraceScope scope{traces.back()};
    sent.push_back(rig.nic(0).send_frame(std::span<const std::byte>{frame}));
  }
  rig.engine.run();

  const net::Link& in = *rig.cables[0].b_to_a;
  const sim::Time rx0 = link_arrival(in, sent[0], sim::Time::zero());
  const sim::Time rx1 = rx0 + in.serialization_delay(sent[1]->wire_bytes());  // queued behind
  const sim::Time done0 = rx0 + kSoftwareServiceTime;
  const sim::Time done1 = done0 + kSoftwareServiceTime;  // the server is busy at rx1
  const std::vector<sim::Time> expected_deliveries{
      link_arrival(*rig.cables[2].a_to_b, sent[0], done0),
      link_arrival(*rig.cables[2].a_to_b, sent[1], done1),
  };
  EXPECT_EQ(delivered, expected_deliveries);
  const std::vector<std::pair<sim::Time, sim::Time>> span0{{rx0, done0}};
  const std::vector<std::pair<sim::Time, sim::Time>> span1{{rx1, done1}};
  EXPECT_EQ(switch_spans(sink, traces[0]), span0);
  EXPECT_EQ(switch_spans(sink, traces[1]), span1);

  // Back to back, frame k waits behind k - 1 others: frames 0..256 are
  // admitted and frame 257 finds the queue full.
  for (std::size_t i = 0; i < kSoftwareQueuePackets + 2; ++i) {
    rig.nic(0).send_frame(std::span<const std::byte>{frame});
  }
  rig.engine.run();
  EXPECT_EQ(rig.sw.stats().multicast_sw_forwarded, 2u + kSoftwareQueuePackets + 1);
  EXPECT_EQ(rig.sw.stats().software_queue_drops, 1u);
}

TEST(SwitchPipeline, SameInstantFramesLeaveInHandOverOrder) {
  // Events for one picosecond fire in the order their sequence numbers were
  // drawn, and a frame's pipeline event draws its number when the frame is
  // handed to the link into the switch. Two frames that reach the switch in
  // the same picosecond over links of different delay leave in the order
  // they were handed over (not port order), and an event scheduled for the
  // pipeline's end while both were in flight runs after both have left.
  sim::Engine engine;
  net::Fabric fabric{engine};
  CommoditySwitch sw{engine, "sw", CommoditySwitchConfig{.port_count = 4}};
  net::Nic fast_tx{engine, "fast-tx", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic slow_tx{engine, "slow-tx", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};
  net::Nic fast_rx{engine, "fast-rx", net::MacAddr::from_host_id(3), net::Ipv4Addr{10, 0, 0, 3}};
  net::Nic slow_rx{engine, "slow-rx", net::MacAddr::from_host_id(4), net::Ipv4Addr{10, 0, 0, 4}};
  net::LinkConfig short_cable;
  short_cable.propagation = sim::nanos(std::int64_t{100});
  net::LinkConfig long_cable;
  long_cable.propagation = sim::nanos(std::int64_t{1'000});
  const net::Cable from_fast = fabric.connect(sw, 0, fast_tx, 0, short_cable);
  const net::Cable from_slow = fabric.connect(sw, 1, slow_tx, 0, long_cable);
  const net::Cable to_fast = fabric.connect(sw, 2, fast_rx, 0, net::LinkConfig{});
  const net::Cable to_slow = fabric.connect(sw, 3, slow_rx, 0, net::LinkConfig{});
  sw.bind_host(fast_rx.ip(), fast_rx.mac(), 2);
  sw.bind_host(slow_rx.ip(), slow_rx.mac(), 3);
  std::vector<std::string> order;
  std::vector<sim::Time> at;
  fast_rx.set_rx_handler([&](const net::PacketPtr&, sim::Time t) {
    order.emplace_back("fast");
    at.push_back(t);
  });
  slow_rx.set_rx_handler([&](const net::PacketPtr&, sim::Time t) {
    order.emplace_back("slow");
    at.push_back(t);
  });
  // The long cable's frame is handed over at 0 and the short cable's 900 ns
  // later; both reach the switch at serialization + 1,000 ns.
  const net::PacketPtr first = slow_tx.send_frame(udp_to(slow_tx, slow_rx.ip()));
  net::PacketPtr second;
  engine.schedule_at(sim::Time::zero() + sim::nanos(std::int64_t{900}),
                     [&] { second = fast_tx.send_frame(udp_to(fast_tx, fast_rx.ip())); });
  const sim::Time rx = link_arrival(*from_slow.b_to_a, first, sim::Time::zero());
  const sim::Time egress = rx + kSwitchForwardingLatency;
  std::uint64_t left_before_timer = 0;
  engine.schedule_at(sim::Time::zero() + sim::nanos(std::int64_t{950}), [&] {
    engine.schedule_at(egress, [&] {
      order.emplace_back("timer");
      left_before_timer =
          to_fast.a_to_b->stats().frames_delivered + to_slow.a_to_b->stats().frames_delivered;
    });
  });
  engine.run();

  ASSERT_TRUE(second);
  ASSERT_EQ(link_arrival(*from_fast.b_to_a, second,
                         sim::Time::zero() + sim::nanos(std::int64_t{900})),
            rx);
  const std::vector<std::string> expected_order{"timer", "slow", "fast"};
  EXPECT_EQ(order, expected_order);
  EXPECT_EQ(left_before_timer, 2u);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], link_arrival(*to_slow.a_to_b, first, egress));
  EXPECT_EQ(at[1], link_arrival(*to_fast.a_to_b, second, egress));
  EXPECT_EQ(at[0], at[1]);
}

}  // namespace
}  // namespace tsn::l2
