#include "sim/engine.hpp"
#include "trading/normalizer.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "net/fabric.hpp"
#include "net/stack.hpp"
#include "proto/pitch.hpp"

namespace tsn::trading {
namespace {

NormalizerConfig base_config() {
  NormalizerConfig config;
  config.name = "norm0";
  config.exchange_id = 3;
  config.feed_groups = {net::Ipv4Addr{239, 100, 0, 0}};
  config.partitioning = std::make_shared<proto::HashPartition>(4);
  config.in_mac = net::MacAddr::from_host_id(300);
  config.in_ip = net::Ipv4Addr{10, 1, 0, 1};
  config.out_mac = net::MacAddr::from_host_id(301);
  config.out_ip = net::Ipv4Addr{10, 1, 0, 2};
  return config;
}

// A fake exchange feed NIC wired straight into the normalizer, and a
// promiscuous collector on its output.
struct NormalizerRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  Normalizer normalizer;
  net::Nic feed_source{engine, "exch", net::MacAddr::from_host_id(310),
                       net::Ipv4Addr{10, 2, 0, 1}};
  net::Nic collector{engine, "collector", net::MacAddr::from_host_id(311),
                     net::Ipv4Addr{10, 2, 0, 2}};
  std::vector<proto::norm::Update> updates;
  std::vector<std::uint16_t> update_partitions;
  proto::pitch::FrameBuilder feed;
  bool lose_next = false;

  NormalizerRig()
      : normalizer(engine, base_config()),
        feed(0, 1458,
             [this](std::vector<std::byte> payload, const proto::pitch::UnitHeader&) {
               if (std::exchange(lose_next, false)) return;
               feed_source.send_frame(net::build_multicast_frame(
                   feed_source.mac(), feed_source.ip(), net::Ipv4Addr{239, 100, 0, 0}, 30001,
                   payload));
             }) {
    fabric.connect(feed_source, 0, normalizer.in_nic(), 0, net::LinkConfig{});
    fabric.connect(normalizer.out_nic(), 0, collector, 0, net::LinkConfig{});
    normalizer.join_feeds();
    collector.set_promiscuous(true);
    collector.set_rx_handler([this](const net::PacketPtr& packet, sim::Time) {
      const auto decoded = net::decode_frame(packet->frame());
      if (!decoded || !decoded->is_udp()) return;
      const auto header = proto::norm::peek_header(decoded->payload);
      if (!header) return;
      (void)proto::norm::for_each_update(decoded->payload, [&](const proto::norm::Update& u) {
        updates.push_back(u);
        update_partitions.push_back(header->partition);
      });
    });
    engine.run();  // flush the IGMP joins
  }

  void publish(const proto::pitch::Message& message) {
    feed.append(message);
    feed.flush();
    engine.run();
  }

  // Publishes `message` in a datagram the wire loses: its sequence number
  // is spent, so the next datagram shows a gap.
  void lose(const proto::pitch::Message& message) {
    lose_next = true;
    publish(message);
  }
};

proto::pitch::AddOrder add_of(proto::OrderId id, proto::Side side, proto::Price price,
                              proto::Quantity quantity) {
  proto::pitch::AddOrder add;
  add.order_id = id;
  add.side = side;
  add.symbol = proto::Symbol{"ACME"};
  add.price = price;
  add.quantity = quantity;
  return add;
}

proto::pitch::ModifyOrder modify_of(proto::OrderId id, proto::Price price,
                                    proto::Quantity quantity) {
  proto::pitch::ModifyOrder modify;
  modify.order_id = id;
  modify.price = price;
  modify.quantity = quantity;
  return modify;
}

TEST(Normalizer, RequiresPartitioning) {
  sim::Engine engine;
  NormalizerConfig config = base_config();
  config.partitioning = nullptr;
  EXPECT_THROW(Normalizer(engine, std::move(config)), std::invalid_argument);
}

TEST(Normalizer, AddOrderBecomesNormalizedUpdate) {
  NormalizerRig rig;
  proto::pitch::AddOrder add;
  add.order_id = 42;
  add.side = proto::Side::kBuy;
  add.quantity = 300;
  add.symbol = proto::Symbol{"ACME"};
  add.price = proto::price_from_dollars(50);
  add.time_offset_ns = 1'000;
  rig.publish(proto::pitch::Message{add});
  // A fresh order at a new level: the order event plus an explicit
  // top-of-book update carrying the new best.
  ASSERT_EQ(rig.updates.size(), 2u);
  const auto& update = rig.updates[0];
  EXPECT_EQ(update.kind, proto::norm::UpdateKind::kOrderAdd);
  EXPECT_EQ(update.exchange_id, 3);
  EXPECT_EQ(update.symbol.view(), "ACME");
  EXPECT_EQ(update.price, proto::price_from_dollars(50));
  EXPECT_EQ(update.quantity, 300u);
  EXPECT_EQ(update.order_id, 42u);
  const auto& bbo = rig.updates[1];
  EXPECT_EQ(bbo.kind, proto::norm::UpdateKind::kBboUpdate);
  EXPECT_EQ(bbo.price, proto::price_from_dollars(50));
  EXPECT_EQ(bbo.quantity, 300u);
  EXPECT_EQ(bbo.order_id, 0u);
  EXPECT_EQ(rig.normalizer.stats().bbo_updates, 1u);
}

TEST(Normalizer, TimeMessageSetsClockAndIsNotRepublished) {
  NormalizerRig rig;
  rig.publish(proto::pitch::Message{proto::pitch::Time{34'200}});
  EXPECT_TRUE(rig.updates.empty());
  proto::pitch::AddOrder add;
  add.order_id = 1;
  add.symbol = proto::Symbol{"ACME"};
  add.price = 100;
  add.quantity = 10;
  add.time_offset_ns = 500;
  rig.publish(proto::pitch::Message{add});
  ASSERT_EQ(rig.updates.size(), 2u);  // order add + BBO update
  EXPECT_EQ(rig.updates[0].exchange_time_ns, 34'200ULL * 1'000'000'000 + 500);
  EXPECT_EQ(rig.updates[1].exchange_time_ns, 34'200ULL * 1'000'000'000 + 500);
}

TEST(Normalizer, ExecuteResolvesSymbolFromOrderState) {
  NormalizerRig rig;
  proto::pitch::AddOrder add;
  add.order_id = 7;
  add.side = proto::Side::kSell;
  add.symbol = proto::Symbol{"WIDGET"};
  add.price = proto::price_from_dollars(10);
  add.quantity = 100;
  rig.publish(proto::pitch::Message{add});
  proto::pitch::OrderExecuted exec;
  exec.order_id = 7;
  exec.executed_quantity = 40;
  exec.execution_id = 9'000;
  rig.publish(proto::pitch::Message{exec});
  // add (+bbo), then the trade print (+bbo: depth at best shrank).
  ASSERT_EQ(rig.updates.size(), 4u);
  EXPECT_EQ(rig.updates[2].kind, proto::norm::UpdateKind::kTradePrint);
  EXPECT_EQ(rig.updates[2].symbol.view(), "WIDGET");
  EXPECT_EQ(rig.updates[2].quantity, 40u);
  EXPECT_EQ(rig.updates[3].kind, proto::norm::UpdateKind::kBboUpdate);
  EXPECT_EQ(rig.updates[3].quantity, 60u);  // remaining depth at the best
  EXPECT_EQ(rig.normalizer.stats().unknown_orders, 0u);
}

TEST(Normalizer, UnknownOrderIdsCountedNotCrashed) {
  NormalizerRig rig;
  proto::pitch::OrderExecuted exec;
  exec.order_id = 999;  // never added
  exec.executed_quantity = 10;
  rig.publish(proto::pitch::Message{exec});
  EXPECT_TRUE(rig.updates.empty());
  EXPECT_EQ(rig.normalizer.stats().unknown_orders, 1u);
}

TEST(Normalizer, DeleteRemovesDepthAndEmitsBboWhenTopChanges) {
  NormalizerRig rig;
  proto::pitch::AddOrder best;
  best.order_id = 1;
  best.side = proto::Side::kBuy;
  best.symbol = proto::Symbol{"ACME"};
  best.price = proto::price_from_dollars(51);
  best.quantity = 100;
  proto::pitch::AddOrder second;
  second.order_id = 2;
  second.side = proto::Side::kBuy;
  second.symbol = proto::Symbol{"ACME"};
  second.price = proto::price_from_dollars(50);
  second.quantity = 100;
  rig.publish(proto::pitch::Message{best});
  rig.publish(proto::pitch::Message{second});
  // The first add moved the BBO (order + bbo); the second did not (order
  // only).
  ASSERT_EQ(rig.updates.size(), 3u);
  EXPECT_EQ(rig.updates[2].kind, proto::norm::UpdateKind::kOrderAdd);
  // Deleting the best reveals the second order as the new top.
  proto::pitch::DeleteOrder del;
  del.order_id = 1;
  rig.publish(proto::pitch::Message{del});
  ASSERT_EQ(rig.updates.size(), 5u);
  EXPECT_EQ(rig.updates[3].kind, proto::norm::UpdateKind::kOrderDelete);
  EXPECT_EQ(rig.updates[4].kind, proto::norm::UpdateKind::kBboUpdate);
  EXPECT_EQ(rig.updates[4].price, proto::price_from_dollars(50));
  EXPECT_EQ(rig.updates[4].quantity, 100u);
}

TEST(Normalizer, RepartitionsBySymbolHash) {
  NormalizerRig rig;
  const proto::HashPartition expected{4};
  for (int i = 0; i < 20; ++i) {
    proto::pitch::AddOrder add;
    add.order_id = static_cast<proto::OrderId>(100 + i);
    add.symbol = proto::Symbol{std::string{"SYM"} + std::to_string(i)};
    add.price = 100;
    add.quantity = 10;
    rig.publish(proto::pitch::Message{add});
  }
  ASSERT_EQ(rig.updates.size(), 40u);  // order add + BBO update per symbol
  bool saw_multiple_partitions = false;
  for (std::size_t i = 0; i < rig.updates.size(); ++i) {
    EXPECT_EQ(rig.update_partitions[i],
              expected.partition_of(rig.updates[i].symbol, proto::InstrumentKind::kEquity));
    if (rig.update_partitions[i] != rig.update_partitions[0]) saw_multiple_partitions = true;
  }
  EXPECT_TRUE(saw_multiple_partitions);
}

TEST(Normalizer, SequenceGapCountsLostMessages) {
  NormalizerRig rig;
  // Hand-craft two datagrams with a gap between them.
  auto send_with_seq = [&](std::uint32_t seq) {
    std::vector<std::byte> payload;
    net::WireWriter w{payload};
    w.u16_le(static_cast<std::uint16_t>(proto::pitch::kUnitHeaderSize + 14));
    w.u8(1);
    w.u8(0);  // unit 0
    w.u32_le(seq);
    proto::pitch::encode(proto::pitch::Message{proto::pitch::DeleteOrder{0, 12345}}, w);
    rig.feed_source.send_frame(net::build_multicast_frame(
        rig.feed_source.mac(), rig.feed_source.ip(), net::Ipv4Addr{239, 100, 0, 0}, 30001,
        payload));
    rig.engine.run();
  };
  send_with_seq(1);
  send_with_seq(2);  // contiguous
  EXPECT_EQ(rig.normalizer.stats().sequence_gaps, 0u);
  send_with_seq(7);  // jumped over 3..6
  EXPECT_EQ(rig.normalizer.stats().sequence_gaps, 1u);
  EXPECT_EQ(rig.normalizer.stats().messages_lost, 4u);
}

TEST(Normalizer, StatsCountDatagramsAndMessages) {
  NormalizerRig rig;
  proto::pitch::AddOrder add;
  add.order_id = 1;
  add.symbol = proto::Symbol{"ACME"};
  add.price = 100;
  add.quantity = 10;
  rig.feed.append(proto::pitch::Message{add});
  add.order_id = 2;
  rig.feed.append(proto::pitch::Message{add});
  rig.feed.flush();
  rig.engine.run();
  EXPECT_EQ(rig.normalizer.stats().datagrams_in, 1u);
  EXPECT_EQ(rig.normalizer.stats().messages_in, 2u);
  // Two order adds at the same price: both change the displayed top (new
  // level, then more depth at it) -> two order updates + two BBO updates.
  EXPECT_EQ(rig.normalizer.stats().updates_out, 4u);
  EXPECT_EQ(rig.normalizer.stats().bbo_updates, 2u);
  EXPECT_GE(rig.normalizer.stats().datagrams_out, 1u);
}

TEST(Normalizer, LossyReplicaNeverTrades) {
  // No snapshot channel, so a gap leaves the stale order in place.
  NormalizerRig rig;
  rig.publish(proto::pitch::Message{add_of(1, proto::Side::kBuy, 5'000, 100)});
  rig.lose(proto::pitch::Message{proto::pitch::DeleteOrder{0, 1}});
  // A legitimate ask at the stale bid's price: the exchange's book no
  // longer holds the bid, so it rested there. The replica must too.
  rig.publish(proto::pitch::Message{add_of(2, proto::Side::kSell, 5'000, 100)});
  EXPECT_EQ(rig.normalizer.stats().sequence_gaps, 1u);
  EXPECT_EQ(rig.normalizer.tracked_orders(), 2u);
  const auto crossed = rig.normalizer.best_of(proto::Symbol{"ACME"});
  ASSERT_TRUE(crossed.has_value());
  EXPECT_EQ(crossed->bid, 5'000);
  EXPECT_EQ(crossed->ask, 5'000);
  // The ask's own delete resolves against the book it rests in.
  rig.publish(proto::pitch::Message{proto::pitch::DeleteOrder{0, 2}});
  EXPECT_EQ(rig.updates.back().kind, proto::norm::UpdateKind::kBboUpdate);
  EXPECT_EQ(rig.updates.back().side, proto::Side::kSell);
  EXPECT_EQ(rig.updates.back().price, 0);
  EXPECT_EQ(rig.normalizer.stats().unknown_orders, 0u);
  EXPECT_EQ(rig.normalizer.tracked_orders(), 1u);
}

TEST(Normalizer, ModifyBboCarriesTheNewTopsDepth) {
  NormalizerRig rig;
  rig.publish(proto::pitch::Message{add_of(1, proto::Side::kBuy, 5'100, 100)});
  rig.publish(proto::pitch::Message{add_of(2, proto::Side::kBuy, 5'000, 100)});
  rig.publish(proto::pitch::Message{add_of(3, proto::Side::kBuy, 5'000, 50)});
  rig.updates.clear();
  // The best order moves below the next level: the top becomes 5'000 x 150.
  rig.publish(proto::pitch::Message{modify_of(1, 4'900, 100)});
  ASSERT_EQ(rig.updates.size(), 2u);
  EXPECT_EQ(rig.updates[0].kind, proto::norm::UpdateKind::kOrderModify);
  EXPECT_EQ(rig.updates[0].price, 4'900);
  EXPECT_EQ(rig.updates[0].quantity, 100u);
  EXPECT_EQ(rig.updates[1].kind, proto::norm::UpdateKind::kBboUpdate);
  EXPECT_EQ(rig.updates[1].price, 5'000);
  EXPECT_EQ(rig.updates[1].quantity, 150u);
}

TEST(Normalizer, ModifyThatKeepsTheTopEmitsNoBbo) {
  NormalizerRig rig;
  rig.publish(proto::pitch::Message{add_of(1, proto::Side::kSell, 5'100, 100)});
  rig.updates.clear();
  // Leaving the level and re-entering it at the same price and size: the
  // top's price and depth end where they began.
  rig.publish(proto::pitch::Message{modify_of(1, 5'100, 100)});
  ASSERT_EQ(rig.updates.size(), 1u);
  EXPECT_EQ(rig.updates[0].kind, proto::norm::UpdateKind::kOrderModify);
  EXPECT_EQ(rig.normalizer.stats().bbo_updates, 1u);  // the add's alone
}

TEST(Normalizer, ModifyToZeroDropsTheOrder) {
  NormalizerRig rig;
  rig.publish(proto::pitch::Message{add_of(1, proto::Side::kBuy, 5'000, 100)});
  rig.publish(proto::pitch::Message{modify_of(1, 5'000, 0)});
  EXPECT_EQ(rig.normalizer.tracked_orders(), 0u);
  EXPECT_EQ(rig.updates.back().kind, proto::norm::UpdateKind::kBboUpdate);
  EXPECT_EQ(rig.updates.back().price, 0);  // the bid side emptied
  rig.publish(proto::pitch::Message{proto::pitch::DeleteOrder{0, 1}});
  EXPECT_EQ(rig.normalizer.stats().unknown_orders, 1u);
}

TEST(Normalizer, TradeIsAPrintAndLeavesTheBook) {
  NormalizerRig rig;
  proto::pitch::Trade trade;
  trade.order_id = 77;
  trade.side = proto::Side::kSell;
  trade.symbol = proto::Symbol{"ACME"};
  trade.price = 5'000;
  trade.quantity = 25;
  trade.time_offset_ns = 9;
  rig.publish(proto::pitch::Message{trade});
  ASSERT_EQ(rig.updates.size(), 1u);
  EXPECT_EQ(rig.updates[0].kind, proto::norm::UpdateKind::kTradePrint);
  EXPECT_EQ(rig.updates[0].side, proto::Side::kSell);
  EXPECT_EQ(rig.updates[0].price, 5'000);
  EXPECT_EQ(rig.updates[0].quantity, 25u);
  EXPECT_EQ(rig.updates[0].order_id, 77u);
  EXPECT_EQ(rig.updates[0].exchange_time_ns, 9u);
  EXPECT_FALSE(rig.normalizer.best_of(proto::Symbol{"ACME"}).has_value());
  EXPECT_EQ(rig.normalizer.tracked_orders(), 0u);
}

TEST(Normalizer, AddWithALiveIdOrNoQuantityLeavesTheBook) {
  NormalizerRig rig;
  rig.publish(proto::pitch::Message{add_of(1, proto::Side::kBuy, 5'000, 100)});
  rig.updates.clear();
  rig.publish(proto::pitch::Message{add_of(1, proto::Side::kBuy, 5'200, 30)});
  rig.publish(proto::pitch::Message{add_of(2, proto::Side::kBuy, 5'300, 0)});
  // Both are republished; neither moves the book, so no BBO follows.
  ASSERT_EQ(rig.updates.size(), 2u);
  EXPECT_EQ(rig.updates[0].kind, proto::norm::UpdateKind::kOrderAdd);
  EXPECT_EQ(rig.updates[0].price, 5'200);
  EXPECT_EQ(rig.updates[1].kind, proto::norm::UpdateKind::kOrderAdd);
  EXPECT_EQ(rig.normalizer.tracked_orders(), 1u);
  EXPECT_EQ(rig.normalizer.best_of(proto::Symbol{"ACME"})->bid, 5'000);
  // The first add's order is the one a delete finds.
  rig.publish(proto::pitch::Message{proto::pitch::DeleteOrder{0, 1}});
  EXPECT_EQ(rig.updates[2].kind, proto::norm::UpdateKind::kOrderDelete);
  EXPECT_EQ(rig.updates[2].price, 5'000);
  EXPECT_EQ(rig.normalizer.best_of(proto::Symbol{"ACME"})->bid, 0);
}

}  // namespace
}  // namespace tsn::trading
