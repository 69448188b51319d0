#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "l1s/fpga_switch.hpp"
#include "l1s/layer1_switch.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/headers.hpp"
#include "net/headers.hpp"

namespace tsn::l1s {
namespace {

struct L1Rig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  Layer1Switch sw;
  std::vector<std::unique_ptr<net::Nic>> nics;

  explicit L1Rig(L1SwitchConfig config = {}, std::size_t hosts = 4,
                 net::LinkConfig link = net::LinkConfig{})
      : sw(engine, "l1s", config) {
    for (std::size_t i = 0; i < hosts; ++i) {
      auto nic = std::make_unique<net::Nic>(
          engine, "h" + std::to_string(i),
          net::MacAddr::from_host_id(static_cast<std::uint32_t>(i + 1)),
          net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(i + 1)});
      nic->set_promiscuous(true);
      fabric.connect(sw, static_cast<net::PortId>(i), *nic, 0, link);
      nics.push_back(std::move(nic));
    }
  }

  net::Nic& nic(std::size_t i) { return *nics[i]; }

  std::vector<std::byte> frame(std::size_t from, std::size_t payload = 16) {
    return net::build_udp_frame(nic(from).mac(), net::MacAddr::broadcast(), nic(from).ip(),
                                net::Ipv4Addr{10, 0, 0, 99}, 1, 2,
                                std::vector<std::byte>(payload, std::byte{1}));
  }
};

TEST(Layer1Switch, FanOutDeliversToAllPatchedOutputs) {
  L1Rig rig;
  rig.sw.patch(0, 1);
  rig.sw.patch(0, 2);
  rig.sw.patch(0, 3);
  int count = 0;
  for (std::size_t i = 1; i <= 3; ++i) {
    rig.nic(i).set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++count; });
  }
  rig.nic(0).send_frame(rig.frame(0));
  rig.engine.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(rig.sw.stats().frames_forwarded, 3u);
  EXPECT_EQ(rig.sw.circuit_count(), 3u);
}

TEST(Layer1Switch, FanOutLatencyIsNanoseconds) {
  static_assert(kL1sFanoutLatency == sim::nanos(std::int64_t{6}));
  net::LinkConfig link;
  link.rate_bps = 0;  // isolate switch latency from serialization
  link.propagation = sim::Duration::zero();
  L1Rig rig{L1SwitchConfig{}, 2, link};
  rig.sw.patch(0, 1);
  sim::Time arrival;
  rig.nic(1).set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  rig.nic(0).send_frame(rig.frame(0));
  rig.engine.run();
  EXPECT_EQ(arrival, sim::Time::zero() + kL1sFanoutLatency);
}

TEST(Layer1Switch, MergeAddsFiftyNanoseconds) {
  static_assert(kL1sMergeLatency == sim::nanos(std::int64_t{50}));
  net::LinkConfig link;
  link.rate_bps = 0;
  link.propagation = sim::Duration::zero();
  L1Rig rig{L1SwitchConfig{}, 3, link};
  rig.sw.patch(0, 2);
  rig.sw.patch(1, 2);  // two inputs on one output: a merge
  sim::Time arrival;
  rig.nic(2).set_rx_handler([&](const net::PacketPtr&, sim::Time at) { arrival = at; });
  rig.nic(0).send_frame(rig.frame(0));
  rig.engine.run();
  EXPECT_EQ(arrival, sim::Time::zero() + kL1sFanoutLatency + kL1sMergeLatency);
  EXPECT_EQ(rig.sw.stats().merged_frames, 1u);
}

TEST(Layer1Switch, UnpatchedInputDrops) {
  L1Rig rig;
  rig.nic(0).send_frame(rig.frame(0));
  rig.engine.run();
  EXPECT_EQ(rig.sw.stats().frames_unpatched, 1u);
}

TEST(Layer1Switch, PatchOutOfRangeThrows) {
  L1Rig rig;
  EXPECT_THROW(rig.sw.patch(99, 0), std::out_of_range);
  EXPECT_THROW(rig.sw.patch(0, 99), std::out_of_range);
}

TEST(Layer1Switch, MergeContentionQueuesAtEgressLink) {
  // §4.3: merged feeds can exceed available bandwidth — bursts queue or
  // drop at the merged output's line rate.
  net::LinkConfig slow;
  slow.rate_bps = 1'000'000'000;  // 1 Gb/s
  slow.queue_capacity_bytes = 5'000;
  L1Rig rig{L1SwitchConfig{}, 4, slow};
  rig.sw.patch(0, 3);
  rig.sw.patch(1, 3);
  rig.sw.patch(2, 3);
  int delivered = 0;
  rig.nic(3).set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++delivered; });
  // Correlated burst from all three inputs at once.
  for (int round = 0; round < 10; ++round) {
    for (std::size_t src = 0; src < 3; ++src) {
      rig.nic(src).send_frame(rig.frame(src, 1400));
    }
  }
  rig.engine.run();
  EXPECT_LT(delivered, 30);  // some frames must have died at the merge
  const auto totals = rig.fabric.total_stats();
  EXPECT_GT(totals.frames_dropped_queue, 0u);
}

TEST(FpgaSwitch, MulticastForwardingWithFilters) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  FpgaSwitchConfig config;
  FpgaSwitch sw{engine, "fpga", config};
  std::vector<std::unique_ptr<net::Nic>> nics;
  for (std::size_t i = 0; i < 3; ++i) {
    auto nic = std::make_unique<net::Nic>(
        engine, "h" + std::to_string(i),
        net::MacAddr::from_host_id(static_cast<std::uint32_t>(i + 1)),
        net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(i + 1)});
    nic->set_promiscuous(true);
    fabric.connect(sw, static_cast<net::PortId>(i), *nic, 0, net::LinkConfig{});
    nics.push_back(std::move(nic));
  }
  const net::Ipv4Addr group{239, 50, 0, 1};
  ASSERT_TRUE(sw.join_group(group, 1));
  ASSERT_TRUE(sw.join_group(group, 2));
  int got1 = 0;
  int got2 = 0;
  nics[1]->set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got1; });
  nics[2]->set_rx_handler([&](const net::PacketPtr&, sim::Time) { ++got2; });
  nics[0]->send_frame(
      net::build_multicast_frame(nics[0]->mac(), nics[0]->ip(), group, 30001, {}));
  engine.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);

  // The group table is the filter: a group no port joined dies at line rate.
  nics[0]->send_frame(net::build_multicast_frame(nics[0]->mac(), nics[0]->ip(),
                                                 net::Ipv4Addr{239, 60, 0, 1}, 30001, {}));
  engine.run();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  EXPECT_EQ(sw.stats().no_group_drops, 1u);
}

TEST(FpgaSwitch, GroupTableIsHardCapped) {
  // §5: FPGA-augmented switches have small forwarding tables; there is no
  // software fallback — the join is simply refused.
  sim::Engine engine;
  FpgaSwitch sw{engine, "fpga", FpgaSwitchConfig{}};
  for (std::uint32_t i = 0; i < kFpgaGroupTableCapacity; ++i) {
    EXPECT_TRUE(sw.join_group(net::Ipv4Addr{0xef000000u + i}, 0));
  }
  EXPECT_FALSE(sw.join_group(net::Ipv4Addr{0xef001000u}, 0));
  EXPECT_EQ(sw.group_count(), kFpgaGroupTableCapacity);
  // An existing group can still add ports.
  EXPECT_TRUE(sw.join_group(net::Ipv4Addr{0xef000001u}, 2));
}

TEST(FpgaSwitch, NonMulticastTrafficDropped) {
  sim::Engine engine;
  FpgaSwitch sw{engine, "fpga", FpgaSwitchConfig{}};
  auto frame = net::build_udp_frame(net::MacAddr::from_host_id(1), net::MacAddr::from_host_id(2),
                                    net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2}, 1, 2,
                                    {});
  net::PacketFactory factory;
  sw.receive(factory.make(std::move(frame), engine.now()), 0);
  EXPECT_EQ(sw.stats().no_group_drops, 1u);
}

}  // namespace
}  // namespace tsn::l1s
