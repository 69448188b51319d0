#include "deploy/reference.hpp"

#include <functional>
#include <string>

namespace tsn::deploy {

namespace {

// Addressing callback: (rack, index) -> IP. Leaf-spine uses its rack
// subnets; the L1S fabric uses a flat space.
using Addresser = std::function<net::Ipv4Addr(std::size_t rack, std::size_t index)>;

}  // namespace

Deployment::Deployment(DeploymentConfig config) : config_(config) {}

void Deployment::start() {
  normalizer_->join_feeds();
  gateway_->start();
  for (auto& strategy : strategies_) strategy->start();
  engine_.run();
}

void Deployment::drive(sim::Duration activity) {
  if (!driver_) {
    exchange::ActivityConfig activity_config;
    activity_config.events_per_second = config_.events_per_second;
    activity_config.cross_weight = 0.2;
    driver_ = std::make_unique<exchange::MarketActivityDriver>(*exchange_, activity_config,
                                                               config_.seed);
  }
  driver_->run_until(engine_.now() + activity);
}

void Deployment::run(sim::Duration duration) {
  drive(duration);
  engine_.run();
}

void Deployment::run_bounded(sim::Duration activity, sim::Duration drain) {
  drive(activity);
  engine_.run_until(engine_.now() + activity + drain);
}

DeploymentReport Deployment::report() const {
  DeploymentReport out;
  out.feed_datagrams = exchange_->stats().feed_datagrams;
  out.feed_messages = exchange_->stats().feed_messages;
  out.normalized_updates = normalizer_->stats().updates_out;
  out.sequence_gaps = normalizer_->stats().sequence_gaps;
  for (const auto& strategy : strategies_) {
    out.updates_received += strategy->stats().updates_received;
    out.orders_sent += strategy->stats().orders_sent;
    out.acks += strategy->stats().acks;
    out.fills += strategy->stats().fills;
    out.tick_to_trade_ns.merge(strategy->tick_to_trade());
    out.order_rtt_ns.merge(strategy->order_rtt());
    out.feed_path_ns.merge(strategy->feed_path());
  }
  out.frames_dropped = fabric_.total_stats().frames_dropped_queue +
                       fabric_.total_stats().frames_dropped_loss;
  return out;
}

void Deployment::register_metrics(telemetry::Registry& registry) const {
  exchange_->register_metrics(registry, "exchange");
  normalizer_->register_metrics(registry, "normalizer");
  gateway_->register_metrics(registry, "gateway");
  for (const auto& strategy : strategies_) {
    strategy->register_metrics(registry, "strategy." + strategy->config().name);
  }
  fabric_.register_metrics(registry, "fabric");
}

void LeafSpineDeployment::register_metrics(telemetry::Registry& registry) const {
  Deployment::register_metrics(registry);
  for (std::size_t i = 0; i < topo_->leaf_count(); ++i) {
    topo_->leaf(i).register_metrics(registry, "switch");
  }
  for (std::size_t i = 0; i < topo_->spine_count(); ++i) {
    topo_->spine(i).register_metrics(registry, "switch");
  }
}

void QuadL1sDeployment::register_metrics(telemetry::Registry& registry) const {
  Deployment::register_metrics(registry);
  using topo::Stage;
  for (const Stage stage :
       {Stage::kFeeds, Stage::kNormDist, Stage::kOrderAgg, Stage::kToExchange}) {
    topo_->stage_switch(stage).register_metrics(registry, "l1s");
  }
}

namespace {

struct BuiltApps {
  std::unique_ptr<exchange::Exchange> exchange;
  std::unique_ptr<trading::Normalizer> normalizer;
  std::unique_ptr<trading::Gateway> gateway;
  std::vector<std::unique_ptr<trading::MomentumTaker>> strategies;
};

BuiltApps build_apps(sim::Scheduler& engine, const DeploymentConfig& config,
                     const Addresser& address, std::uint32_t& next_host_id) {
  BuiltApps apps;
  auto next_mac = [&next_host_id] { return net::MacAddr::from_host_id(next_host_id++); };

  exchange::ExchangeConfig xconfig;
  xconfig.name = "EXCH";
  xconfig.exchange_id = 1;
  for (std::size_t i = 0; i < config.symbol_count; ++i) {
    xconfig.symbols.push_back({proto::Symbol{"SY" + std::to_string(i)},
                               proto::InstrumentKind::kEquity,
                               proto::price_from_dollars(50.0 + static_cast<double>(i) * 7.0)});
  }
  xconfig.feed_partitioning = std::make_shared<proto::HashPartition>(config.exchange_units);
  xconfig.feed_mac = next_mac();
  xconfig.feed_ip = address(0, 0);
  xconfig.order_mac = next_mac();
  xconfig.order_ip = address(0, 1);
  apps.exchange = std::make_unique<exchange::Exchange>(engine, xconfig);

  trading::NormalizerConfig nconfig;
  nconfig.name = "norm";
  nconfig.exchange_id = 1;
  for (std::uint8_t u = 0; u < apps.exchange->unit_count(); ++u) {
    nconfig.feed_groups.push_back(apps.exchange->unit_group(u));
  }
  nconfig.feed_port = xconfig.feed_port;
  nconfig.partitioning = std::make_shared<proto::HashPartition>(config.norm_partitions);
  nconfig.software_latency = config.software_latency;
  nconfig.in_mac = next_mac();
  nconfig.in_ip = address(1, 0);
  nconfig.out_mac = next_mac();
  nconfig.out_ip = address(1, 1);
  apps.normalizer = std::make_unique<trading::Normalizer>(engine, nconfig);

  trading::GatewayConfig gconfig;
  gconfig.name = "gw";
  gconfig.exchange_mac = xconfig.order_mac;
  gconfig.exchange_ip = xconfig.order_ip;
  gconfig.exchange_port = xconfig.order_port;
  gconfig.software_latency = config.software_latency;
  gconfig.client_mac = next_mac();
  gconfig.client_ip = address(3, 0);
  gconfig.upstream_mac = next_mac();
  gconfig.upstream_ip = address(3, 1);
  apps.gateway = std::make_unique<trading::Gateway>(engine, gconfig);

  for (std::size_t s = 0; s < config.strategy_count; ++s) {
    trading::StrategyConfig sconfig;
    sconfig.name = "strat" + std::to_string(s);
    for (std::uint32_t p = 0; p < config.norm_partitions; ++p) {
      sconfig.subscriptions.push_back(apps.normalizer->partition_group(p));
    }
    sconfig.norm_port = nconfig.out_port;
    sconfig.gateway_mac = gconfig.client_mac;
    sconfig.gateway_ip = gconfig.client_ip;
    sconfig.gateway_port = gconfig.listen_port;
    sconfig.decision_latency = config.decision_latency;
    sconfig.software_latency = config.software_latency;
    sconfig.md_mac = next_mac();
    sconfig.md_ip = address(2, 2 * s);
    sconfig.order_mac = next_mac();
    sconfig.order_ip = address(2, 2 * s + 1);
    apps.strategies.push_back(std::make_unique<trading::MomentumTaker>(
        engine, sconfig, config.momentum_tick, 100));
  }
  return apps;
}

}  // namespace

topo::LeafSpineConfig LeafSpineDeployment::default_topo() {
  topo::LeafSpineConfig config;
  config.spine_count = 2;
  config.leaf_count = 4;
  config.ports_per_leaf = 34;  // room for 16 strategies per rack
  return config;
}

LeafSpineDeployment::LeafSpineDeployment(DeploymentConfig config,
                                         topo::LeafSpineConfig topo_config)
    : Deployment(config) {
  topo_ = std::make_unique<topo::LeafSpineFabric>(fabric_, topo_config);
  auto apps = build_apps(engine_, config_, topo::LeafSpineFabric::host_ip, next_host_id_);
  exchange_ = std::move(apps.exchange);
  normalizer_ = std::move(apps.normalizer);
  gateway_ = std::move(apps.gateway);
  strategies_ = std::move(apps.strategies);

  topo_->attach_host(0, exchange_->feed_nic());
  topo_->attach_host(0, exchange_->order_nic());
  topo_->attach_host(1, normalizer_->in_nic());
  topo_->attach_host(1, normalizer_->out_nic());
  for (auto& strategy : strategies_) {
    topo_->attach_host(2, strategy->md_nic());
    topo_->attach_host(2, strategy->order_nic());
  }
  topo_->attach_host(3, gateway_->client_nic());
  topo_->attach_host(3, gateway_->upstream_nic());
}

QuadL1sDeployment::QuadL1sDeployment(DeploymentConfig config) : Deployment(config) {
  topo_ = std::make_unique<topo::QuadL1Fabric>(fabric_);
  // Flat addressing: the circuit fabric does no routing.
  auto address = [](std::size_t rack, std::size_t index) {
    return net::Ipv4Addr{10, 9, static_cast<std::uint8_t>(rack),
                         static_cast<std::uint8_t>(index + 1)};
  };
  auto apps = build_apps(engine_, config_, address, next_host_id_);
  exchange_ = std::move(apps.exchange);
  normalizer_ = std::move(apps.normalizer);
  gateway_ = std::move(apps.gateway);
  strategies_ = std::move(apps.strategies);

  using topo::Stage;
  // Stage 1: exchange feed -> normalizer.
  const auto feed_out = topo_->attach(Stage::kFeeds, exchange_->feed_nic());
  const auto norm_in = topo_->attach(Stage::kFeeds, normalizer_->in_nic());
  topo_->patch(Stage::kFeeds, feed_out, norm_in);
  // Stage 2: normalized feed fan-out to every strategy.
  const auto norm_out = topo_->attach(Stage::kNormDist, normalizer_->out_nic());
  for (auto& strategy : strategies_) {
    const auto port = topo_->attach(Stage::kNormDist, strategy->md_nic());
    topo_->patch(Stage::kNormDist, norm_out, port);
  }
  // Stage 3: strategies merge onto the gateway; responses fan back out.
  const auto gw_client = topo_->attach(Stage::kOrderAgg, gateway_->client_nic());
  for (auto& strategy : strategies_) {
    const auto port = topo_->attach(Stage::kOrderAgg, strategy->order_nic());
    topo_->patch_duplex(Stage::kOrderAgg, port, gw_client);
  }
  // Stage 4: gateway to the exchange order port.
  const auto gw_up = topo_->attach(Stage::kToExchange, gateway_->upstream_nic());
  const auto exch_orders = topo_->attach(Stage::kToExchange, exchange_->order_nic());
  topo_->patch_duplex(Stage::kToExchange, gw_up, exch_orders);
}

}  // namespace tsn::deploy
