#include "sim/engine.hpp"
#include "trading/strategy.hpp"

#include <gtest/gtest.h>

#include "exchange/exchange.hpp"
#include "l2/commodity_switch.hpp"
#include "proto/norm.hpp"
#include "trading/gateway.hpp"

namespace tsn::trading {
namespace {

// Mini-rig: a norm-feed injector wired to the strategy's market-data NIC,
// a gateway, and a real exchange behind the gateway.
//
//   injector --> strategy.md
//   strategy.orders <-> gateway.clients
//   gateway.exchange <-> exchange.orders
struct StrategyRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch;
  Gateway gateway;
  net::Nic injector{engine, "injector", net::MacAddr::from_host_id(400),
                    net::Ipv4Addr{10, 3, 0, 1}};
  std::uint32_t injector_seq = 1;

  static exchange::ExchangeConfig exchange_config() {
    exchange::ExchangeConfig config;
    config.name = "X";
    config.exchange_id = 1;
    config.symbols = {{proto::Symbol{"ACME"}, proto::InstrumentKind::kEquity,
                       proto::price_from_dollars(100)}};
    config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
    config.feed_mac = net::MacAddr::from_host_id(410);
    config.feed_ip = net::Ipv4Addr{10, 3, 1, 1};
    config.order_mac = net::MacAddr::from_host_id(411);
    config.order_ip = net::Ipv4Addr{10, 3, 1, 2};
    return config;
  }

  static GatewayConfig gateway_config() {
    GatewayConfig config;
    config.name = "gw";
    config.exchange_mac = net::MacAddr::from_host_id(411);
    config.exchange_ip = net::Ipv4Addr{10, 3, 1, 2};
    config.client_mac = net::MacAddr::from_host_id(420);
    config.client_ip = net::Ipv4Addr{10, 3, 2, 1};
    config.upstream_mac = net::MacAddr::from_host_id(421);
    config.upstream_ip = net::Ipv4Addr{10, 3, 2, 2};
    return config;
  }

  static StrategyConfig strategy_config() {
    StrategyConfig config;
    config.name = "strat";
    config.subscriptions = {net::Ipv4Addr{239, 200, 0, 0}};
    config.gateway_mac = net::MacAddr::from_host_id(420);
    config.gateway_ip = net::Ipv4Addr{10, 3, 2, 1};
    config.md_mac = net::MacAddr::from_host_id(430);
    config.md_ip = net::Ipv4Addr{10, 3, 3, 1};
    config.order_mac = net::MacAddr::from_host_id(431);
    config.order_ip = net::Ipv4Addr{10, 3, 3, 2};
    return config;
  }

  explicit StrategyRig(GatewayConfig gw_config = gateway_config())
      : exch(engine, exchange_config()), gateway(engine, std::move(gw_config)) {
    fabric.connect(gateway.upstream_nic(), 0, exch.order_nic(), 0, net::LinkConfig{});
  }

  void wire(Strategy& strategy) {
    fabric.connect(injector, 0, strategy.md_nic(), 0, net::LinkConfig{});
    fabric.connect(strategy.order_nic(), 0, gateway.client_nic(), 0, net::LinkConfig{});
    gateway.start();
    strategy.start();
    engine.run();
  }

  void inject(const proto::norm::Update& update) {
    proto::norm::DatagramBuilder builder{
        0, 1458, [this](std::span<const std::byte> payload) {
          injector.send_frame(net::build_multicast_frame(injector.mac(), injector.ip(),
                                                         net::Ipv4Addr{239, 200, 0, 0}, 31001,
                                                         payload));
        }};
    builder.append(update, injector_seq++);
    builder.flush();
    engine.run();
  }

  proto::norm::Update trade_print(double price) {
    proto::norm::Update u;
    u.kind = proto::norm::UpdateKind::kTradePrint;
    u.exchange_id = 1;
    u.symbol = proto::Symbol{"ACME"};
    u.price = proto::price_from_dollars(price);
    u.quantity = 100;
    return u;
  }
};

TEST(Strategy, ReceivesSubscribedUpdates) {
  StrategyRig rig;
  MomentumTaker strategy{rig.engine, StrategyRig::strategy_config()};
  rig.wire(strategy);
  rig.inject(rig.trade_print(100.0));
  EXPECT_EQ(strategy.stats().updates_received, 1u);
  EXPECT_EQ(strategy.stats().orders_sent, 0u);  // one print is not momentum
}

TEST(Strategy, MomentumTakerFiresAfterTwoUpticks) {
  StrategyRig rig;
  MomentumTaker strategy{rig.engine, StrategyRig::strategy_config()};
  rig.wire(strategy);
  // Seed liquidity so the exchange can fill the taker.
  rig.exch.book(proto::Symbol{"ACME"})
      .submit({rig.exch.next_order_id(), proto::Side::kSell, proto::price_from_dollars(100.03),
               1'000});
  rig.inject(rig.trade_print(100.00));
  rig.inject(rig.trade_print(100.01));
  rig.inject(rig.trade_print(100.02));  // second uptick: fire
  EXPECT_EQ(strategy.stats().orders_sent, 1u);
  EXPECT_EQ(strategy.stats().acks, 1u);
  EXPECT_EQ(strategy.stats().fills, 1u);  // crossed the resting offer
  EXPECT_EQ(rig.gateway.stats().orders_forwarded, 1u);
  EXPECT_EQ(rig.gateway.stats().responses_routed, 2u);  // ack + fill
}

TEST(Strategy, MomentumTakerFiresDownticksToo) {
  StrategyRig rig;
  MomentumTaker strategy{rig.engine, StrategyRig::strategy_config()};
  rig.wire(strategy);
  rig.inject(rig.trade_print(100.00));
  rig.inject(rig.trade_print(99.99));
  rig.inject(rig.trade_print(99.98));
  EXPECT_EQ(strategy.stats().orders_sent, 1u);
  // Nothing resting to hit: the IOC cancels without a fill.
  EXPECT_EQ(strategy.stats().fills, 0u);
  EXPECT_EQ(strategy.open_orders(), 0u);
}

TEST(Strategy, TickToTradeIsMeasuredAndPlausible) {
  StrategyRig rig;
  auto config = StrategyRig::strategy_config();
  config.decision_latency = sim::micros(std::int64_t{2});
  config.software_latency = sim::nanos(std::int64_t{900});
  MomentumTaker strategy{rig.engine, config};
  rig.wire(strategy);
  for (int i = 0; i < 12; ++i) rig.inject(rig.trade_print(100.00 + 0.01 * i));
  ASSERT_GT(strategy.tick_to_trade().count(), 0u);
  // Tick-to-trade = software hop (0.9 us) + decision (2 us), measured at
  // the NIC boundary.
  EXPECT_NEAR(strategy.tick_to_trade().mean(), 2'900.0, 5.0);
}

TEST(Strategy, GatewayRiskGateRejectsOversizedOrders) {
  // A taker whose clip is one share over the gateway's per-order cap:
  // every order dies at the gateway with a risk reject; nothing reaches
  // the exchange.
  StrategyRig rig;
  MomentumTaker strategy{rig.engine, StrategyRig::strategy_config(), 100,
                         RiskLimits{}.max_order_quantity + 1};
  rig.wire(strategy);
  for (int i = 0; i < 3; ++i) rig.inject(rig.trade_print(100.00 + 0.01 * i));
  EXPECT_EQ(strategy.stats().orders_sent, 1u);
  EXPECT_EQ(strategy.stats().rejects, 1u);
  EXPECT_EQ(rig.gateway.stats().orders_rejected_risk, 1u);
  EXPECT_EQ(rig.gateway.risk().stats().rejected_size, 1u);
  EXPECT_EQ(rig.gateway.stats().orders_forwarded, 0u);
  EXPECT_EQ(rig.exch.stats().orders_received, 0u);
}

TEST(Strategy, GatewayTracksFirmPositionThroughFills) {
  StrategyRig rig;
  MomentumTaker strategy{rig.engine, StrategyRig::strategy_config()};
  rig.wire(strategy);
  rig.exch.book(proto::Symbol{"ACME"})
      .submit({rig.exch.next_order_id(), proto::Side::kSell, proto::price_from_dollars(100.03),
               1'000});
  for (int i = 0; i < 3; ++i) rig.inject(rig.trade_print(100.00 + 0.01 * i));
  ASSERT_EQ(strategy.stats().fills, 1u);
  // The gateway's firm-wide position reflects the buy (§4.2).
  EXPECT_EQ(rig.gateway.risk().position(proto::Symbol{"ACME"}), 100);
  EXPECT_EQ(rig.gateway.risk().firm_gross_position(), 100);
  EXPECT_EQ(rig.gateway.risk().open_orders(), 0u);
}

TEST(Strategy, GatewayTranslatesIdsBothWays) {
  StrategyRig rig;
  MomentumTaker strategy{rig.engine, StrategyRig::strategy_config()};
  rig.wire(strategy);
  rig.exch.book(proto::Symbol{"ACME"})
      .submit({rig.exch.next_order_id(), proto::Side::kSell, proto::price_from_dollars(100.03),
               50});
  for (int i = 0; i < 3; ++i) rig.inject(rig.trade_print(100.00 + 0.01 * i));
  // The strategy's client order ids start at 1; the exchange saw the
  // gateway's translated ids, yet the ack reached the strategy. If the id
  // mapping were broken, acks would be orphaned at the gateway.
  EXPECT_EQ(strategy.stats().acks, 1u);
  EXPECT_EQ(rig.gateway.stats().orphan_responses, 0u);
  EXPECT_TRUE(rig.gateway.upstream_ready());
}

TEST(Strategy, MultipleStrategiesShareOneGatewayThroughASwitch) {
  // Two strategies reach one gateway across a small L3 switch (a gateway
  // serves many strategy servers, §2).
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch{engine, StrategyRig::exchange_config()};
  Gateway gateway{engine, StrategyRig::gateway_config()};
  fabric.connect(gateway.upstream_nic(), 0, exch.order_nic(), 0, net::LinkConfig{});

  auto config_a = StrategyRig::strategy_config();
  auto config_b = StrategyRig::strategy_config();
  config_b.name = "strat-b";
  config_b.md_mac = net::MacAddr::from_host_id(440);
  config_b.md_ip = net::Ipv4Addr{10, 3, 4, 1};
  config_b.order_mac = net::MacAddr::from_host_id(441);
  config_b.order_ip = net::Ipv4Addr{10, 3, 4, 2};
  MomentumTaker a{engine, config_a};
  MomentumTaker b{engine, config_b};

  l2::CommoditySwitch sw{engine, "order-sw", l2::CommoditySwitchConfig{}};
  fabric.connect(sw, 0, a.order_nic(), 0, net::LinkConfig{});
  fabric.connect(sw, 1, b.order_nic(), 0, net::LinkConfig{});
  fabric.connect(sw, 2, gateway.client_nic(), 0, net::LinkConfig{});
  sw.bind_host(a.order_nic().ip(), a.order_nic().mac(), 0);
  sw.bind_host(b.order_nic().ip(), b.order_nic().mac(), 1);
  sw.bind_host(gateway.client_nic().ip(), gateway.client_nic().mac(), 2);

  gateway.start();
  a.start();
  b.start();
  engine.run();
  EXPECT_EQ(gateway.stats().sessions_accepted, 2u);
}

}  // namespace
}  // namespace tsn::trading
