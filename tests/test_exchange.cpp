#include "sim/engine.hpp"
#include "exchange/exchange.hpp"

#include <gtest/gtest.h>

#include "boe_client.hpp"
#include "exchange/activity.hpp"
#include "net/fabric.hpp"
#include "net/stack.hpp"
#include "proto/pitch.hpp"

namespace tsn::exchange {
namespace {

ExchangeConfig base_config() {
  ExchangeConfig config;
  config.name = "TESTX";
  config.exchange_id = 1;
  config.symbols = {
      {proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity, proto::price_from_dollars(100)},
      {proto::Symbol{"BBB"}, proto::InstrumentKind::kEquity, proto::price_from_dollars(50)},
      {proto::Symbol{"ZZZ"}, proto::InstrumentKind::kEquity, proto::price_from_dollars(10)},
  };
  config.feed_partitioning = std::make_shared<proto::AlphabetPartition>(2);
  config.feed_mac = net::MacAddr::from_host_id(100);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 100};
  config.order_mac = net::MacAddr::from_host_id(101);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 101};
  return config;
}

// Exchange with a promiscuous feed listener and a raw TCP order client
// wired directly to its NICs.
struct ExchangeRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  Exchange exchange;
  net::Nic feed_listener{engine, "feedtap", net::MacAddr::from_host_id(200),
                         net::Ipv4Addr{10, 0, 0, 200}};
  net::Nic client_nic{engine, "client", net::MacAddr::from_host_id(201),
                      net::Ipv4Addr{10, 0, 0, 201}};
  net::NetStack client;
  // Each well-formed feed datagram, decoded message by message.
  std::vector<std::vector<proto::pitch::Message>> frames;
  std::vector<net::Ipv4Addr> frame_groups;
  proto::pitch::DecodedBatch batch;

  explicit ExchangeRig(ExchangeConfig config = base_config())
      : exchange(engine, std::move(config)), client(client_nic) {
    feed_listener.set_promiscuous(true);
    fabric.connect(exchange.feed_nic(), 0, feed_listener, 0, net::LinkConfig{});
    fabric.connect(exchange.order_nic(), 0, client_nic, 0, net::LinkConfig{});
    feed_listener.set_rx_handler([this](const net::PacketPtr& packet, sim::Time) {
      const auto decoded = net::decode_frame(packet->frame());
      if (!decoded || !decoded->is_udp()) return;
      if (!proto::pitch::decode_batch(decoded->payload, batch)) return;
      auto& messages = frames.emplace_back();
      for (std::size_t i = 0; i < batch.count; ++i) messages.push_back(batch.message_at(i));
      frame_groups.push_back(decoded->ip->dst);
    });
  }

  std::size_t total_messages() const {
    std::size_t n = 0;
    for (const auto& f : frames) n += f.size();
    return n;
  }
};

TEST(Exchange, RequiresPartitioning) {
  sim::Engine engine;
  ExchangeConfig config = base_config();
  config.feed_partitioning = nullptr;
  EXPECT_THROW(Exchange(engine, std::move(config)), std::invalid_argument);
}

TEST(Exchange, BookChangesArePublishedAsPitch) {
  ExchangeRig rig;
  auto& book = rig.exchange.book(proto::Symbol{"AAA"});
  book.submit({rig.exchange.next_order_id(), proto::Side::kBuy,
               proto::price_from_dollars(99.0), 100});
  rig.engine.run();
  ASSERT_EQ(rig.frames.size(), 1u);
  // First message of the first frame of the day is the Time tick, then the
  // add order.
  ASSERT_EQ(rig.frames[0].size(), 2u);
  EXPECT_TRUE(std::holds_alternative<proto::pitch::Time>(rig.frames[0][0]));
  const auto* add = std::get_if<proto::pitch::AddOrder>(&rig.frames[0][1]);
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(add->symbol.view(), "AAA");
  EXPECT_EQ(add->quantity, 100u);
}

TEST(Exchange, SameInstantEventsPackIntoOneDatagram) {
  ExchangeRig rig;
  auto& book = rig.exchange.book(proto::Symbol{"AAA"});
  for (int i = 0; i < 5; ++i) {
    book.submit({rig.exchange.next_order_id(), proto::Side::kBuy,
                 proto::price_from_dollars(99.0) - i, 100});
  }
  rig.engine.run();
  // All five adds happened at t=0: one datagram, six messages (time + 5).
  ASSERT_EQ(rig.frames.size(), 1u);
  EXPECT_EQ(rig.frames[0].size(), 6u);
}

TEST(Exchange, PartitioningRoutesSymbolsToUnits) {
  ExchangeRig rig;
  EXPECT_EQ(rig.exchange.unit_count(), 2u);
  EXPECT_EQ(rig.exchange.unit_of(proto::Symbol{"AAA"}), 0u);
  EXPECT_EQ(rig.exchange.unit_of(proto::Symbol{"ZZZ"}), 1u);
  rig.exchange.book(proto::Symbol{"AAA"})
      .submit({rig.exchange.next_order_id(), proto::Side::kBuy, 100, 10});
  rig.exchange.book(proto::Symbol{"ZZZ"})
      .submit({rig.exchange.next_order_id(), proto::Side::kBuy, 100, 10});
  rig.engine.run();
  ASSERT_EQ(rig.frame_groups.size(), 2u);
  EXPECT_EQ(rig.frame_groups[0], rig.exchange.unit_group(0));
  EXPECT_EQ(rig.frame_groups[1], rig.exchange.unit_group(1));
  EXPECT_NE(rig.frame_groups[0], rig.frame_groups[1]);
}

TEST(Exchange, NonAcceptingExchangeClosesTheLegWithinOneRoundTrip) {
  // A halted or not-yet-promoted exchange refuses a session with a FIN as
  // soon as the handshake completes, so the client can move to its next
  // endpoint instead of waiting out a login timeout.
  ExchangeRig rig;
  rig.exchange.set_accepting(false);
  net::TcpEndpoint& leg = rig.client.connect_tcp(
      rig.exchange.order_nic().mac(), rig.exchange.order_nic().ip(),
      rig.exchange.config().order_port, 0);
  sim::Time established_at;
  sim::Time closed_at;
  net::TcpCloseReason reason = net::TcpCloseReason::kNone;
  leg.set_state_handler([&](net::TcpState state) {
    if (state == net::TcpState::kEstablished) established_at = rig.engine.now();
  });
  leg.set_closed_handler([&](net::TcpCloseReason r) {
    reason = r;
    closed_at = rig.engine.now();
  });
  rig.engine.run_until(rig.engine.now() + sim::millis(std::int64_t{100}));

  EXPECT_EQ(reason, net::TcpCloseReason::kPeerFin);
  // The handshake took one round trip from t=0; the FIN lands within one more.
  EXPECT_LE(closed_at - established_at, established_at - sim::Time::zero());
}

TEST(Exchange, UnknownSymbolThrows) {
  ExchangeRig rig;
  EXPECT_THROW((void)rig.exchange.book(proto::Symbol{"NOPE"}), std::out_of_range);
  EXPECT_FALSE(rig.exchange.lists(proto::Symbol{"NOPE"}));
  EXPECT_TRUE(rig.exchange.lists(proto::Symbol{"AAA"}));
}

// Full order-entry session walkthrough over real TCP.
struct SessionRig : ExchangeRig {
  BoeClient session{client, exchange.order_nic().mac(), exchange.order_nic().ip(),
                    exchange.config().order_port};

  void send(const proto::boe::Message& message) {
    session.send(message);
    engine.run();
  }

  template <typename T>
  const T* last_response_of() const {
    for (auto it = session.msgs.rbegin(); it != session.msgs.rend(); ++it) {
      if (const T* typed = std::get_if<T>(&it->second)) return typed;
    }
    return nullptr;
  }
};

TEST(ExchangeSession, LoginAcceptedThenOrderAck) {
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  ASSERT_NE(rig.last_response_of<proto::boe::LoginAccepted>(), nullptr);
  rig.send(proto::boe::NewOrder{10, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(99), proto::boe::TimeInForce::kDay});
  const auto* ack = rig.last_response_of<proto::boe::OrderAccepted>();
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->client_order_id, 10u);
  EXPECT_EQ(rig.exchange.stats().orders_accepted, 1u);
  // The resting order also hit the market data feed.
  EXPECT_GE(rig.total_messages(), 2u);
}

TEST(ExchangeSession, OrderBeforeLoginRejected) {
  SessionRig rig;
  rig.send(proto::boe::NewOrder{10, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(99), proto::boe::TimeInForce::kDay});
  const auto* reject = rig.last_response_of<proto::boe::OrderRejected>();
  ASSERT_NE(reject, nullptr);
  EXPECT_EQ(reject->reason, proto::boe::RejectReason::kNotLoggedIn);
}

TEST(ExchangeSession, ValidationRejects) {
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{1, proto::Side::kBuy, 100, proto::Symbol{"NOPE"}, 100,
                                proto::boe::TimeInForce::kDay});
  EXPECT_EQ(rig.last_response_of<proto::boe::OrderRejected>()->reason,
            proto::boe::RejectReason::kInvalidSymbol);
  rig.send(proto::boe::NewOrder{2, proto::Side::kBuy, 0, proto::Symbol{"AAA"}, 100,
                                proto::boe::TimeInForce::kDay});
  EXPECT_EQ(rig.last_response_of<proto::boe::OrderRejected>()->reason,
            proto::boe::RejectReason::kInvalidQuantity);
  rig.send(proto::boe::NewOrder{3, proto::Side::kBuy, 100, proto::Symbol{"AAA"}, -5,
                                proto::boe::TimeInForce::kDay});
  EXPECT_EQ(rig.last_response_of<proto::boe::OrderRejected>()->reason,
            proto::boe::RejectReason::kInvalidPrice);
  rig.send(proto::boe::NewOrder{4, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(99), proto::boe::TimeInForce::kDay});
  rig.send(proto::boe::NewOrder{4, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(98), proto::boe::TimeInForce::kDay});
  EXPECT_EQ(rig.last_response_of<proto::boe::OrderRejected>()->reason,
            proto::boe::RejectReason::kDuplicateOrderId);
}

TEST(ExchangeSession, TradeGeneratesFillsForBothSides) {
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{20, proto::Side::kSell, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(100), proto::boe::TimeInForce::kDay});
  rig.send(proto::boe::NewOrder{21, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(100), proto::boe::TimeInForce::kDay});
  // Both legs belong to this session: two fills.
  const std::size_t fills = rig.session.received<proto::boe::Fill>().size();
  EXPECT_EQ(fills, 2u);
  EXPECT_EQ(rig.exchange.stats().fills_sent, 2u);
  const auto* fill = rig.last_response_of<proto::boe::Fill>();
  EXPECT_EQ(fill->price, proto::price_from_dollars(100));
  EXPECT_EQ(fill->leaves_quantity, 0u);
}

TEST(ExchangeSession, CancelWorksWhileResting) {
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{30, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(90), proto::boe::TimeInForce::kDay});
  rig.send(proto::boe::CancelOrder{30});
  const auto* cancelled = rig.last_response_of<proto::boe::OrderCancelled>();
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->cancelled_quantity, 100u);
}

TEST(ExchangeSession, CancelFillRaceYieldsTooLate) {
  // §2: "if a firm's request to cancel an order is sent at the same time
  // as a notification that the order has been filled."
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{40, proto::Side::kSell, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(100), proto::boe::TimeInForce::kDay});
  // Another participant (the book directly) lifts the offer before the
  // cancel reaches the matching engine.
  rig.exchange.book(proto::Symbol{"AAA"})
      .submit({rig.exchange.next_order_id(), proto::Side::kBuy,
               proto::price_from_dollars(100), 100});
  rig.send(proto::boe::CancelOrder{40});
  const auto* reject = rig.last_response_of<proto::boe::CancelRejected>();
  ASSERT_NE(reject, nullptr);
  EXPECT_EQ(reject->reason, proto::boe::RejectReason::kTooLateToCancel);
  EXPECT_EQ(rig.exchange.stats().cancel_rejects, 1u);
  // The fill still arrived.
  ASSERT_NE(rig.last_response_of<proto::boe::Fill>(), nullptr);
}

TEST(ExchangeSession, IocRemainderCancelled) {
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{50, proto::Side::kSell, 40, proto::Symbol{"AAA"},
                                proto::price_from_dollars(100), proto::boe::TimeInForce::kDay});
  rig.send(proto::boe::NewOrder{51, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(100),
                                proto::boe::TimeInForce::kImmediateOrCancel});
  const auto* cancelled = rig.last_response_of<proto::boe::OrderCancelled>();
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->client_order_id, 51u);
  EXPECT_EQ(cancelled->cancelled_quantity, 60u);
}

TEST(ExchangeSession, ModifyRepricesOrder) {
  SessionRig rig;
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{60, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(90), proto::boe::TimeInForce::kDay});
  rig.send(proto::boe::ModifyOrder{60, 150, proto::price_from_dollars(91)});
  const auto* modified = rig.last_response_of<proto::boe::OrderModified>();
  ASSERT_NE(modified, nullptr);
  EXPECT_EQ(modified->quantity, 150u);
  EXPECT_EQ(rig.exchange.book(proto::Symbol{"AAA"}).depth_at(proto::Side::kBuy,
                                                             proto::price_from_dollars(91)),
            150u);
}

TEST(ExchangeSession, ModifyWithZeroQuantityOrNonPositivePriceIsRejected) {
  // A ModifyOrder passes the field checks a NewOrder does: quantity 0 and a
  // price <= 0 are rejected before the book is touched, and the order stays
  // open and cancellable.
  SessionRig rig;
  auto& book = rig.exchange.book(proto::Symbol{"AAA"});
  book.submit({rig.exchange.next_order_id(), proto::Side::kBuy, proto::price_from_dollars(99),
               100});
  rig.send(proto::boe::LoginRequest{1, 0xfeed});
  rig.send(proto::boe::NewOrder{70, proto::Side::kSell, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(101), proto::boe::TimeInForce::kDay});
  rig.send(proto::boe::NewOrder{71, proto::Side::kBuy, 100, proto::Symbol{"AAA"},
                                proto::price_from_dollars(98), proto::boe::TimeInForce::kDay});
  ASSERT_EQ(rig.exchange.session_store().open_orders_total(), 2u);
  const std::size_t feed_before = rig.total_messages();
  const auto expect_rejected = [&rig](proto::OrderId client_id, proto::boe::RejectReason reason) {
    const auto* reject = rig.last_response_of<proto::boe::CancelRejected>();
    ASSERT_NE(reject, nullptr);
    EXPECT_EQ(reject->client_order_id, client_id);
    EXPECT_EQ(reject->reason, reason);
    rig.session.msgs.clear();
  };

  rig.send(proto::boe::ModifyOrder{70, 0, proto::price_from_dollars(101)});
  expect_rejected(70, proto::boe::RejectReason::kInvalidQuantity);
  rig.send(proto::boe::ModifyOrder{70, 100, 0});  // would cross the $99 bid
  expect_rejected(70, proto::boe::RejectReason::kInvalidPrice);
  rig.send(proto::boe::ModifyOrder{71, 100, -5});
  expect_rejected(71, proto::boe::RejectReason::kInvalidPrice);

  EXPECT_EQ(book.depth_at(proto::Side::kSell, proto::price_from_dollars(101)), 100u);
  EXPECT_EQ(book.depth_at(proto::Side::kBuy, proto::price_from_dollars(99)), 100u);
  EXPECT_EQ(book.depth_at(proto::Side::kBuy, proto::price_from_dollars(98)), 100u);
  EXPECT_EQ(rig.exchange.stats().fills_sent, 0u);
  EXPECT_EQ(rig.total_messages(), feed_before) << "a rejected modify publishes nothing";
  EXPECT_EQ(rig.exchange.session_store().open_orders_total(), 2u);

  for (const proto::OrderId client_id : {70u, 71u}) {
    rig.send(proto::boe::CancelOrder{client_id});
    const auto* cancelled = rig.last_response_of<proto::boe::OrderCancelled>();
    ASSERT_NE(cancelled, nullptr);
    EXPECT_EQ(cancelled->client_order_id, client_id);
    EXPECT_EQ(cancelled->cancelled_quantity, 100u);
  }
  EXPECT_EQ(rig.exchange.session_store().open_orders_total(), 0u);
}

TEST(ActivityDriver, GeneratesDecodableFeedTraffic) {
  ExchangeRig rig;
  ActivityConfig config;
  config.events_per_second = 20'000;
  MarketActivityDriver driver{rig.exchange, config, 7};
  driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{100}));
  rig.engine.run();
  EXPECT_GT(driver.stats().adds, 100u);
  EXPECT_GT(rig.total_messages(), 500u);
  EXPECT_GT(rig.exchange.stats().feed_datagrams, 100u);
  // Books never cross.
  for (const auto& spec : rig.exchange.symbols()) {
    const auto best = rig.exchange.book(spec.symbol).best();
    if (best.bid_price && best.ask_price) {
      EXPECT_LT(*best.bid_price, *best.ask_price);
    }
  }
}

TEST(ActivityDriver, RateModulationChangesVolume) {
  ExchangeRig low_rig;
  ExchangeRig high_rig;
  ActivityConfig low;
  low.events_per_second = 2'000;
  ActivityConfig high;
  high.events_per_second = 2'000;
  high.rate_multiplier = [](sim::Time) { return 10.0; };
  MarketActivityDriver low_driver{low_rig.exchange, low, 7};
  MarketActivityDriver high_driver{high_rig.exchange, high, 7};
  low_driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{100}));
  high_driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{100}));
  low_rig.engine.run();
  high_rig.engine.run();
  const auto low_total = low_driver.stats().adds + low_driver.stats().cancels +
                         low_driver.stats().replaces + low_driver.stats().crosses;
  const auto high_total = high_driver.stats().adds + high_driver.stats().cancels +
                          high_driver.stats().replaces + high_driver.stats().crosses;
  EXPECT_GT(high_total, low_total * 5);
}

}  // namespace
}  // namespace tsn::exchange
