#include "sim/engine.hpp"
#include "l2/commodity_switch.hpp"

#include <gtest/gtest.h>

#include <string>
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

  explicit SwitchRig(CommoditySwitchConfig config = {}, std::size_t hosts = 4)
      : sw(engine, "sw", config) {
    for (std::size_t i = 0; i < hosts; ++i) {
      auto nic = std::make_unique<net::Nic>(engine, "h" + std::to_string(i),
                                            net::MacAddr::from_host_id(static_cast<std::uint32_t>(i + 1)),
                                            net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(i + 1)});
      fabric.connect(sw, static_cast<net::PortId>(i), *nic, 0, net::LinkConfig{});
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

  std::vector<std::string> deliveries;
  for (std::size_t r = 1; r <= 3; ++r) {
    rig.nic(r).set_rx_handler([&deliveries, r](const net::PacketPtr& p, sim::Time at) {
      deliveries.push_back("h" + std::to_string(r) + " #" + std::to_string(p->id()) + " @" +
                           std::to_string(at.picos()));
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
                    std::to_string(span.t_in.picos()) + "-" + std::to_string(span.t_out.picos()));
  }
  // Recorded from the one-event-per-port switch. Port 1 is stalled until
  // 2,117,200 ps, so its three copies leave after the other ports' in order.
  const std::vector<std::string> expected_spans = {
      "1 h0->sw link 117200-234400",
      "2 h0->sw link 117200-301600",
      "3 h0->sw link 117200-368800",
      "1 sw switch 234400-734400",
      "1 sw->h3 link 734400-851600",
      "1 sw switch 234400-734400",
      "1 sw switch 234400-734400",
      "1 sw->h2 link 734400-851600",
      "2 sw switch 301600-801600",
      "2 sw->h3 link 801600-918800",
      "2 sw switch 301600-801600",
      "2 sw switch 301600-801600",
      "2 sw->h2 link 801600-918800",
      "3 sw switch 368800-868800",
      "3 sw->h3 link 868800-986000",
      "3 sw switch 368800-868800",
      "3 sw switch 368800-868800",
      "3 sw->h2 link 868800-986000",
      "1 sw->h1 link 2117200-2234400",
      "2 sw->h1 link 2117200-2301600",
      "3 sw->h1 link 2117200-2368800",
  };
  const std::vector<std::string> expected_deliveries = {
      "h3 #1 @851600",
      "h2 #1 @851600",
      "h3 #2 @918800",
      "h2 #2 @918800",
      "h3 #3 @986000",
      "h2 #3 @986000",
      "h1 #1 @2234400",
      "h1 #2 @2301600",
      "h1 #3 @2368800",
  };
  EXPECT_EQ(spans, expected_spans);
  EXPECT_EQ(deliveries, expected_deliveries);
  EXPECT_EQ(rig.sw.stats().replications, 9u);
  EXPECT_EQ(rig.sw.stats().frames_stalled, 3u);
}

}  // namespace
}  // namespace tsn::l2
