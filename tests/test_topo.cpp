#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "mcast/subscribe.hpp"
#include "net/stack.hpp"
#include "topo/cloud.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/quad_l1s.hpp"

namespace tsn::topo {
namespace {

std::unique_ptr<net::Nic> make_nic(sim::Engine& engine, std::uint32_t id, net::Ipv4Addr ip) {
  return std::make_unique<net::Nic>(engine, "h" + std::to_string(id),
                                    net::MacAddr::from_host_id(id), ip);
}

TEST(LeafSpine, ValidatesConfig) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  LeafSpineConfig bad;
  bad.spine_count = 0;
  EXPECT_THROW(LeafSpineFabric(fabric, bad), std::invalid_argument);
  LeafSpineConfig tight;
  tight.spine_count = 4;
  tight.ports_per_leaf = 4;
  EXPECT_THROW(LeafSpineFabric(fabric, tight), std::invalid_argument);
}

TEST(LeafSpine, HostIpAddressingIsDeterministic) {
  EXPECT_EQ(LeafSpineFabric::host_ip(3, 0), (net::Ipv4Addr{10, 3, 0, 1}));
  EXPECT_EQ(LeafSpineFabric::host_ip(3, 249), (net::Ipv4Addr{10, 3, 0, 250}));
  EXPECT_EQ(LeafSpineFabric::host_ip(3, 250), (net::Ipv4Addr{10, 3, 1, 1}));
  EXPECT_THROW((void)LeafSpineFabric::host_ip(256, 0), std::out_of_range);
}

struct LeafSpineRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  LeafSpineFabric topo;
  std::vector<std::unique_ptr<net::Nic>> nics;

  explicit LeafSpineRig(std::size_t spines = 2, std::size_t leaves = 4)
      : topo(fabric, [&] {
          LeafSpineConfig config;
          config.spine_count = spines;
          config.leaf_count = leaves;
          config.ports_per_leaf = 8;
          return config;
        }()) {}

  net::Nic& add_host(std::size_t rack, std::size_t index) {
    const auto id = static_cast<std::uint32_t>(rack * 100 + index + 1);
    nics.push_back(make_nic(engine, id, LeafSpineFabric::host_ip(rack, index)));
    topo.attach_host(rack, *nics.back());
    return *nics.back();
  }
};

TEST(LeafSpine, UnicastCrossesThreeSwitches) {
  LeafSpineRig rig;
  auto& a = rig.add_host(0, 0);
  auto& b = rig.add_host(2, 0);
  sim::Time arrival;
  b.set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  a.send_frame(net::build_udp_frame(a.mac(), net::MacAddr::from_host_id(0xff), a.ip(), b.ip(),
                                    1, 2, std::vector<std::byte>(64, std::byte{1})));
  rig.engine.run();
  ASSERT_GT(arrival, sim::Time::zero());
  // Three switch pipelines at 500 ns each dominate: total in [1.5, 3] us.
  EXPECT_GE(arrival - sim::Time::zero(), sim::nanos(std::int64_t{1'500}));
  EXPECT_LE(arrival - sim::Time::zero(), sim::micros(std::int64_t{3}));
  std::uint64_t hops = 0;  // leaf, spine, leaf
  for (std::size_t l = 0; l < rig.topo.leaf_count(); ++l) {
    hops += rig.topo.leaf(l).stats().unicast_forwarded;
  }
  for (std::size_t s = 0; s < rig.topo.spine_count(); ++s) {
    hops += rig.topo.spine(s).stats().unicast_forwarded;
  }
  EXPECT_EQ(hops, 3u);
}

TEST(LeafSpine, IntraRackStaysLocal) {
  LeafSpineRig rig;
  auto& a = rig.add_host(1, 0);
  auto& b = rig.add_host(1, 1);
  sim::Time arrival;
  b.set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  a.send_frame(net::build_udp_frame(a.mac(), net::MacAddr::from_host_id(0xff), a.ip(), b.ip(),
                                    1, 2, {}));
  rig.engine.run();
  ASSERT_GT(arrival, sim::Time::zero());
  EXPECT_LT(arrival - sim::Time::zero(), sim::micros(std::int64_t{1}));
  // Spines never saw the frame.
  for (std::size_t s = 0; s < rig.topo.spine_count(); ++s) {
    EXPECT_EQ(rig.topo.spine(s).stats().unicast_forwarded, 0u);
  }
}

TEST(LeafSpine, MulticastReachesOnlyJoinedRacks) {
  LeafSpineRig rig;
  auto& source = rig.add_host(0, 0);  // the exchange ToR rack
  auto& member = rig.add_host(1, 0);
  auto& outsider = rig.add_host(2, 0);
  const net::Ipv4Addr group{239, 77, 0, 1};
  int member_got = 0;
  int outsider_got = 0;
  member.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++member_got; });
  outsider.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++outsider_got; });
  mcast::join_group(member, group);
  rig.engine.run();
  source.send_frame(net::build_multicast_frame(source.mac(), source.ip(), group, 30001, {}));
  rig.engine.run();
  EXPECT_EQ(member_got, 1);
  EXPECT_EQ(outsider_got, 0);
  // The join was snooped at the member's leaf and relayed to the
  // rendezvous spine.
  EXPECT_EQ(rig.topo.leaf(1).mroutes().group_count(), 1u);
  EXPECT_EQ(rig.topo.spine(0).mroutes().group_count(), 1u);
}

TEST(LeafSpine, MulticastNoLoopsUnderFanout) {
  LeafSpineRig rig;
  auto& source = rig.add_host(0, 0);
  const net::Ipv4Addr group{239, 77, 0, 2};
  std::vector<net::Nic*> members;
  int total = 0;
  for (std::size_t rack = 1; rack < 4; ++rack) {
    for (std::size_t i = 0; i < 2; ++i) {
      auto& nic = rig.add_host(rack, i);
      nic.set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++total; });
      mcast::join_group(nic, group);
      members.push_back(&nic);
    }
  }
  rig.engine.run();
  source.send_frame(net::build_multicast_frame(source.mac(), source.ip(), group, 30001, {}));
  const auto events = rig.engine.run();
  EXPECT_EQ(total, 6);          // exactly one copy per member
  EXPECT_LT(events, 1'000u);    // and no multicast storm
}

TEST(LeafSpine, RackCapacityEnforced) {
  LeafSpineRig rig;
  for (std::size_t i = 0; i < 6; ++i) rig.add_host(0, i);  // 8 ports - 2 uplinks
  EXPECT_THROW(rig.add_host(0, 6), std::length_error);
  EXPECT_THROW(rig.add_host(9, 0), std::out_of_range);
}

TEST(QuadL1s, StagesAreIndependentSwitches) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  QuadL1Fabric quad{fabric};
  EXPECT_NE(&quad.stage_switch(Stage::kFeeds), &quad.stage_switch(Stage::kNormDist));
  EXPECT_EQ(quad.stage_switch(Stage::kFeeds).name(), "l1s-feeds");
  EXPECT_EQ(quad.stage_switch(Stage::kToExchange).name(), "l1s-toexch");
}

TEST(QuadL1s, AttachAndPatchDeliver) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  QuadL1Fabric quad{fabric};
  auto exchange = make_nic(engine, 1, net::Ipv4Addr{10, 0, 0, 1});
  auto norm_a = make_nic(engine, 2, net::Ipv4Addr{10, 0, 0, 2});
  auto norm_b = make_nic(engine, 3, net::Ipv4Addr{10, 0, 0, 3});
  norm_a->set_promiscuous(true);
  norm_b->set_promiscuous(true);
  const auto p_exch = quad.attach(Stage::kFeeds, *exchange);
  const auto p_a = quad.attach(Stage::kFeeds, *norm_a);
  const auto p_b = quad.attach(Stage::kFeeds, *norm_b);
  quad.patch(Stage::kFeeds, p_exch, p_a);
  quad.patch(Stage::kFeeds, p_exch, p_b);
  int got = 0;
  norm_a->set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got; });
  norm_b->set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got; });
  exchange->send_frame(net::build_multicast_frame(exchange->mac(), exchange->ip(),
                                                  net::Ipv4Addr{239, 1, 1, 1}, 30001, {}));
  engine.run();
  EXPECT_EQ(got, 2);
}

TEST(QuadL1s, PortExhaustionThrows) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  QuadL1Fabric quad{fabric};
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (std::uint32_t i = 0; i <= kQuadPortsPerSwitch; ++i) {
    nics.push_back(make_nic(engine, i + 1, net::Ipv4Addr{0x0a000001u + i}));
  }
  for (std::size_t i = 0; i < kQuadPortsPerSwitch; ++i) (void)quad.attach(Stage::kFeeds, *nics[i]);
  net::Nic& spare = *nics.back();
  EXPECT_THROW((void)quad.attach(Stage::kFeeds, spare), std::length_error);
  // Other stages unaffected.
  EXPECT_EQ(quad.attach(Stage::kNormDist, spare), 0u);
}

TEST(Cloud, TenantsAreLatencyEqualized) {
  // §4.2: the provider equalizes latency across tenants regardless of
  // physical placement.
  sim::Engine engine;
  net::Fabric fabric{engine};
  CloudRegion cloud{fabric};
  auto near = make_nic(engine, 1, net::Ipv4Addr{10, 0, 0, 1});
  auto far = make_nic(engine, 2, net::Ipv4Addr{10, 0, 0, 2});
  auto probe = make_nic(engine, 3, net::Ipv4Addr{10, 0, 0, 3});
  (void)cloud.attach_tenant(*near, sim::micros(std::int64_t{5}));
  (void)cloud.attach_tenant(*far, sim::micros(std::int64_t{90}));
  (void)cloud.attach_tenant(*probe, sim::micros(std::int64_t{1}));
  // One frame from the probe to each tenant, each on an idle fabric: both
  // cross the probe's padded link, the core and the tenant's padded link.
  const auto one_way = [&](net::Nic& to) {
    sim::Time arrival;
    to.set_rx_handler([&arrival](const net::PacketPtr&, sim::Time at) { arrival = at; });
    const sim::Time sent = engine.now();
    probe->send_frame(net::build_udp_frame(probe->mac(), net::MacAddr::from_host_id(9),
                                           probe->ip(), to.ip(), 1, 2, {}));
    engine.run();
    return arrival - sent;
  };
  const sim::Duration to_near = one_way(*near);
  const sim::Duration to_far = one_way(*far);
  EXPECT_EQ(to_near, to_far);
  EXPECT_GT(to_near, kCloudEqualizedLatency * 2);
}

TEST(Cloud, CannotEqualizeBelowPhysicalLatency) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  CloudRegion cloud{fabric};
  auto too_far = make_nic(engine, 1, net::Ipv4Addr{10, 0, 0, 1});
  EXPECT_THROW((void)cloud.attach_tenant(*too_far, sim::millis(std::int64_t{5})),
               std::invalid_argument);
}

TEST(Cloud, EqualizedDeliveryEndToEnd) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  CloudRegion cloud{fabric};
  auto a = make_nic(engine, 1, net::Ipv4Addr{10, 0, 0, 1});
  auto b = make_nic(engine, 2, net::Ipv4Addr{10, 0, 0, 2});
  (void)cloud.attach_tenant(*a, sim::micros(std::int64_t{1}));
  (void)cloud.attach_tenant(*b, sim::micros(std::int64_t{80}));
  sim::Time arrival;
  b->set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  a->send_frame(net::build_udp_frame(a->mac(), net::MacAddr::from_host_id(9), a->ip(), b->ip(),
                                     1, 2, {}));
  engine.run();
  // Two equalized traversals of 100 us each dominate.
  EXPECT_GT(arrival - sim::Time::zero(), sim::micros(std::int64_t{200}));
  EXPECT_LT(arrival - sim::Time::zero(), sim::micros(std::int64_t{210}));
}

TEST(Cloud, ExternalTrafficCrossesTheWan) {
  // §4.2: "latency for communication beyond the cloud will be excessive."
  sim::Engine engine;
  net::Fabric fabric{engine};
  CloudRegion cloud{fabric};
  auto tenant = make_nic(engine, 1, net::Ipv4Addr{10, 0, 0, 1});
  auto colo = make_nic(engine, 2, net::Ipv4Addr{172, 16, 0, 1});
  (void)cloud.attach_tenant(*tenant, sim::micros(std::int64_t{1}));
  (void)cloud.attach_external(*colo);
  sim::Time arrival;
  colo->set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  tenant->send_frame(net::build_udp_frame(tenant->mac(), net::MacAddr::from_host_id(9),
                                          tenant->ip(), colo->ip(), 1, 2, {}));
  engine.run();
  // The tenant's padded link, then the WAN.
  EXPECT_GT(arrival - sim::Time::zero(), kCloudEqualizedLatency + kCloudExternalWanLatency);
}

}  // namespace
}  // namespace tsn::topo
