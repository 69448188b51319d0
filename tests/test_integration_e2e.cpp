// End-to-end integration: the full §2 pipeline — exchange with matching
// engine and PITCH feed, normalizer, strategy, gateway — running over the
// §4.1 leaf-spine fabric with real IGMP joins, multicast, and TCP order
// sessions, driven by background market activity.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include <string>

#include "deploy/reference.hpp"
#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "topo/leaf_spine.hpp"
#include "topo/quad_l1s.hpp"
#include "trading/gateway.hpp"
#include "trading/normalizer.hpp"
#include "trading/strategy.hpp"

namespace tsn {
namespace {

struct Pipeline {
  sim::Engine engine;
  net::Fabric fabric{engine};
  std::unique_ptr<exchange::Exchange> exch;
  std::unique_ptr<trading::Normalizer> normalizer;
  std::unique_ptr<trading::Gateway> gateway;
  std::unique_ptr<trading::MomentumTaker> strategy;

  static constexpr std::uint32_t kPartitions = 4;

  exchange::ExchangeConfig exchange_config() {
    exchange::ExchangeConfig config;
    config.name = "EXCH";
    config.exchange_id = 1;
    for (int i = 0; i < 6; ++i) {
      config.symbols.push_back({proto::Symbol{std::string{"SYM"} + static_cast<char>('A' + i)},
                                proto::InstrumentKind::kEquity,
                                proto::price_from_dollars(100.0 + i)});
    }
    config.feed_partitioning = std::make_shared<proto::AlphabetPartition>(2);
    config.feed_mac = net::MacAddr::from_host_id(1001);
    config.feed_ip = topo::LeafSpineFabric::host_ip(0, 0);
    config.order_mac = net::MacAddr::from_host_id(1002);
    config.order_ip = topo::LeafSpineFabric::host_ip(0, 1);
    return config;
  }

  trading::NormalizerConfig normalizer_config() {
    trading::NormalizerConfig config;
    config.name = "norm";
    config.exchange_id = 1;
    for (std::uint8_t u = 0; u < exch->unit_count(); ++u) {
      config.feed_groups.push_back(exch->unit_group(u));
    }
    config.feed_port = exch->config().feed_port;
    config.partitioning = std::make_shared<proto::HashPartition>(kPartitions);
    config.in_mac = net::MacAddr::from_host_id(1011);
    config.in_ip = topo::LeafSpineFabric::host_ip(1, 0);
    config.out_mac = net::MacAddr::from_host_id(1012);
    config.out_ip = topo::LeafSpineFabric::host_ip(1, 1);
    return config;
  }

  trading::GatewayConfig gateway_config() {
    trading::GatewayConfig config;
    config.name = "gw";
    config.exchange_mac = exch->order_nic().mac();
    config.exchange_ip = exch->order_nic().ip();
    config.exchange_port = exch->config().order_port;
    config.client_mac = net::MacAddr::from_host_id(1021);
    config.client_ip = topo::LeafSpineFabric::host_ip(3, 0);
    config.upstream_mac = net::MacAddr::from_host_id(1022);
    config.upstream_ip = topo::LeafSpineFabric::host_ip(3, 1);
    return config;
  }

  trading::StrategyConfig strategy_config() {
    trading::StrategyConfig config;
    config.name = "strat";
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      config.subscriptions.push_back(normalizer->partition_group(p));
    }
    config.norm_port = normalizer->config().out_port;
    config.gateway_mac = gateway->client_nic().mac();
    config.gateway_ip = gateway->client_nic().ip();
    config.md_mac = net::MacAddr::from_host_id(1031);
    config.md_ip = topo::LeafSpineFabric::host_ip(2, 0);
    config.order_mac = net::MacAddr::from_host_id(1032);
    config.order_ip = topo::LeafSpineFabric::host_ip(2, 1);
    return config;
  }
};

TEST(EndToEnd, LeafSpinePipelineTradesOnMarketData) {
  Pipeline p;
  topo::LeafSpineConfig topo_config;
  topo_config.spine_count = 2;
  topo_config.leaf_count = 4;
  topo_config.ports_per_leaf = 8;
  topo::LeafSpineFabric topo{p.fabric, topo_config};

  p.exch = std::make_unique<exchange::Exchange>(p.engine, p.exchange_config());
  topo.attach_host(0, p.exch->feed_nic());
  topo.attach_host(0, p.exch->order_nic());

  p.normalizer = std::make_unique<trading::Normalizer>(p.engine, p.normalizer_config());
  topo.attach_host(1, p.normalizer->in_nic());
  topo.attach_host(1, p.normalizer->out_nic());

  p.gateway = std::make_unique<trading::Gateway>(p.engine, p.gateway_config());
  topo.attach_host(3, p.gateway->client_nic());
  topo.attach_host(3, p.gateway->upstream_nic());

  p.strategy = std::make_unique<trading::MomentumTaker>(p.engine, p.strategy_config(),
                                                        /*tick=*/100, /*clip=*/100);
  topo.attach_host(2, p.strategy->md_nic());
  topo.attach_host(2, p.strategy->order_nic());

  p.normalizer->join_feeds();
  p.gateway->start();
  p.strategy->start();
  p.engine.run();  // joins, handshakes, logins settle
  ASSERT_TRUE(p.gateway->upstream_ready());

  exchange::ActivityConfig activity;
  activity.events_per_second = 40'000;
  activity.cross_weight = 0.25;  // plenty of prints for the momentum signal
  exchange::MarketActivityDriver driver{*p.exch, activity, 17};
  driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{150}));
  p.engine.run();

  // Market data flowed the whole way.
  EXPECT_GT(p.exch->stats().feed_datagrams, 500u);
  EXPECT_GT(p.normalizer->stats().messages_in, 1'000u);
  EXPECT_EQ(p.normalizer->stats().sequence_gaps, 0u);
  EXPECT_GT(p.strategy->stats().updates_received, 500u);

  // The strategy traded, through the gateway, into the exchange.
  EXPECT_GT(p.strategy->stats().orders_sent, 0u);
  EXPECT_EQ(p.gateway->stats().orders_forwarded, p.strategy->stats().orders_sent);
  EXPECT_GT(p.strategy->stats().acks, 0u);
  EXPECT_EQ(p.gateway->stats().orphan_responses, 0u);

  // Tick-to-trade through software: software hop + decision latency.
  ASSERT_FALSE(p.strategy->tick_to_trade().empty());
  EXPECT_NEAR(p.strategy->tick_to_trade().mean(), 2'900.0, 50.0);

  // Multicast state was learned by snooping, not configured by hand.
  EXPECT_GT(topo.spine(0).mroutes().group_count(), 0u);
  EXPECT_GT(topo.leaf(1).mroutes().group_count(), 0u);
}

TEST(EndToEnd, QuadL1sPipelineHasNanosecondFabricLatency) {
  // The same application stack over Design 3's circuit fabrics. One stage
  // is exercised end to end: exchange feed -> normalizer over the feeds
  // L1S.
  sim::Engine engine;
  net::Fabric fabric{engine};
  topo::QuadL1Fabric quad{fabric};

  exchange::ExchangeConfig xconfig;
  xconfig.name = "EXCH";
  xconfig.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                      proto::price_from_dollars(100)}};
  xconfig.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  xconfig.feed_mac = net::MacAddr::from_host_id(2001);
  xconfig.feed_ip = net::Ipv4Addr{10, 9, 0, 1};
  xconfig.order_mac = net::MacAddr::from_host_id(2002);
  xconfig.order_ip = net::Ipv4Addr{10, 9, 0, 2};
  exchange::Exchange exch{engine, xconfig};

  trading::NormalizerConfig nconfig;
  nconfig.exchange_id = 1;
  nconfig.feed_groups = {exch.unit_group(0)};
  nconfig.partitioning = std::make_shared<proto::HashPartition>(1);
  nconfig.in_mac = net::MacAddr::from_host_id(2011);
  nconfig.in_ip = net::Ipv4Addr{10, 9, 1, 1};
  nconfig.out_mac = net::MacAddr::from_host_id(2012);
  nconfig.out_ip = net::Ipv4Addr{10, 9, 1, 2};
  trading::Normalizer normalizer{engine, nconfig};

  const auto p_exch = quad.attach(topo::Stage::kFeeds, exch.feed_nic());
  const auto p_norm = quad.attach(topo::Stage::kFeeds, normalizer.in_nic());
  quad.patch(topo::Stage::kFeeds, p_exch, p_norm);
  // Circuit fabric: no IGMP needed, but the NIC filter must accept the
  // group's MAC.
  normalizer.in_nic().subscribe_multicast_mac(net::multicast_mac(exch.unit_group(0)));

  exchange::MarketActivityDriver driver{exch, exchange::ActivityConfig{}, 3};
  driver.run_until(sim::Time::zero() + sim::millis(std::int64_t{5}));
  engine.run();

  EXPECT_GT(normalizer.stats().messages_in, 50u);
  EXPECT_EQ(normalizer.stats().sequence_gaps, 0u);
  EXPECT_GT(quad.stage_switch(topo::Stage::kFeeds).stats().frames_forwarded, 0u);
  EXPECT_EQ(quad.stage_switch(topo::Stage::kFeeds).stats().frames_unpatched, 0u);
}

TEST(EndToEnd, TelemetryExportIsDeterministicAcrossIdenticalRuns) {
  // Identical seeds must yield byte-identical trace, metrics, and bench
  // report JSON — the telemetry layer adds no hidden nondeterminism
  // (unordered-map iteration, pointer-keyed output, float drift).
  struct Exports {
    std::string traces;
    std::string metrics;
    std::string report;
  };
  auto run_once = [] {
    deploy::DeploymentConfig config;
    config.strategy_count = 2;
    config.symbol_count = 4;
    config.events_per_second = 20'000;
    config.seed = 99;
    deploy::LeafSpineDeployment deployment{config};
    telemetry::TraceSink sink;
    telemetry::Registry registry;
    deployment.register_metrics(registry);
    telemetry::ScopedTraceSink attach{sink};
    deployment.start();
    deployment.run(sim::millis(std::int64_t{25}));

    Exports out;
    out.traces = sink.to_json();
    out.metrics = registry.to_json(deployment.engine().now());
    const auto r = deployment.report();
    bench::Report report{"determinism_probe", "Determinism probe"};
    report.param("seed", static_cast<std::int64_t>(config.seed));
    report.metric("orders_sent", static_cast<double>(r.orders_sent), "count");
    report.stats("tick_to_trade_ns", r.tick_to_trade_ns, "ns");
    report.check("traded", r.orders_sent > 0);
    out.report = report.to_json();
    return out;
  };
  const Exports a = run_once();
  const Exports b = run_once();
  EXPECT_GT(a.traces.size(), 100u);   // traces were actually recorded
  EXPECT_GT(a.metrics.size(), 100u);  // metrics were actually registered
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.report, b.report);
}

}  // namespace
}  // namespace tsn
