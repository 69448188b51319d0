#include "deploy/multicolo.hpp"

#include <string>

namespace tsn::deploy {

namespace {

// The exchange's facility and the firm's, tens of miles apart.
constexpr wan::Colo kExchangeColo = wan::Colo::kCarteret;
constexpr wan::Colo kFirmColo = wan::Colo::kSecaucus;

}  // namespace

MultiColoDeployment::MultiColoDeployment(MultiColoConfig config)
    : Deployment(config.apps), colo_config_(config) {
  // Addressing: 10.0/16 is the exchange colo, 10.1+/16 the firm's racks.
  auto address = [](std::size_t rack, std::size_t index) {
    return net::Ipv4Addr{10, static_cast<std::uint8_t>(rack), 0,
                         static_cast<std::uint8_t>(index + 1)};
  };
  l2::CommoditySwitchConfig sw_config;
  sw_config.port_count = 40;
  exchange_switch_ =
      std::make_unique<l2::CommoditySwitch>(engine_, "colo-exch-sw", sw_config);
  firm_switch_ = std::make_unique<l2::CommoditySwitch>(engine_, "colo-firm-sw", sw_config);

  // WAN circuit on port 0 of both switches.
  const auto wan_link =
      wan::wan_link_config(kExchangeColo, kFirmColo, colo_config_.wan_tech, colo_config_.raining);
  fabric_.connect(*exchange_switch_, 0, *firm_switch_, 0, wan_link);
  // The firm side relays IGMP joins toward the exchange colo.
  firm_switch_->set_router_port(0, true);
  // Routes across the WAN.
  exchange_switch_->add_route(net::Ipv4Addr{10, 1, 0, 0}, 8, 0);  // everything firmward
  firm_switch_->add_route(net::Ipv4Addr{10, 0, 0, 0}, 16, 0);     // exchange subnet

  // Applications: same builder conventions as the reference deployments.
  exchange::ExchangeConfig xconfig;
  xconfig.name = "EXCH";
  xconfig.exchange_id = 1;
  for (std::size_t i = 0; i < config_.symbol_count; ++i) {
    xconfig.symbols.push_back({proto::Symbol{"SY" + std::to_string(i)},
                               proto::InstrumentKind::kEquity,
                               proto::price_from_dollars(50.0 + static_cast<double>(i) * 7.0)});
  }
  xconfig.feed_partitioning = std::make_shared<proto::HashPartition>(config_.exchange_units);
  xconfig.feed_mac = net::MacAddr::from_host_id(next_host_id_++);
  xconfig.feed_ip = address(0, 0);
  xconfig.order_mac = net::MacAddr::from_host_id(next_host_id_++);
  xconfig.order_ip = address(0, 1);
  exchange_ = std::make_unique<exchange::Exchange>(engine_, xconfig);

  trading::NormalizerConfig nconfig;
  nconfig.name = "norm";
  nconfig.exchange_id = 1;
  for (std::uint8_t u = 0; u < exchange_->unit_count(); ++u) {
    nconfig.feed_groups.push_back(exchange_->unit_group(u));
  }
  nconfig.feed_port = xconfig.feed_port;
  nconfig.partitioning = std::make_shared<proto::HashPartition>(config_.norm_partitions);
  nconfig.software_latency = config_.software_latency;
  nconfig.in_mac = net::MacAddr::from_host_id(next_host_id_++);
  nconfig.in_ip = address(1, 0);
  nconfig.out_mac = net::MacAddr::from_host_id(next_host_id_++);
  nconfig.out_ip = address(1, 1);
  normalizer_ = std::make_unique<trading::Normalizer>(engine_, nconfig);

  trading::GatewayConfig gconfig;
  gconfig.name = "gw";
  gconfig.exchange_mac = xconfig.order_mac;
  gconfig.exchange_ip = xconfig.order_ip;
  gconfig.exchange_port = xconfig.order_port;
  gconfig.software_latency = config_.software_latency;
  gconfig.client_mac = net::MacAddr::from_host_id(next_host_id_++);
  gconfig.client_ip = address(3, 0);
  gconfig.upstream_mac = net::MacAddr::from_host_id(next_host_id_++);
  gconfig.upstream_ip = address(3, 1);
  gateway_ = std::make_unique<trading::Gateway>(engine_, gconfig);

  for (std::size_t s = 0; s < config_.strategy_count; ++s) {
    trading::StrategyConfig sconfig;
    sconfig.name = "strat" + std::to_string(s);
    for (std::uint32_t p = 0; p < config_.norm_partitions; ++p) {
      sconfig.subscriptions.push_back(normalizer_->partition_group(p));
    }
    sconfig.norm_port = nconfig.out_port;
    sconfig.gateway_mac = gconfig.client_mac;
    sconfig.gateway_ip = gconfig.client_ip;
    sconfig.gateway_port = gconfig.listen_port;
    sconfig.decision_latency = config_.decision_latency;
    sconfig.software_latency = config_.software_latency;
    sconfig.md_mac = net::MacAddr::from_host_id(next_host_id_++);
    sconfig.md_ip = address(2, 2 * s);
    sconfig.order_mac = net::MacAddr::from_host_id(next_host_id_++);
    sconfig.order_ip = address(2, 2 * s + 1);
    strategies_.push_back(std::make_unique<trading::MomentumTaker>(
        engine_, sconfig, config_.momentum_tick, 100));
  }

  // Wiring: exchange NICs in colo A; the firm's stack in colo B.
  net::LinkConfig access;  // 10 GbE intra-colo defaults
  net::PortId exch_port = 1;
  auto attach_exchange_side = [&](net::Nic& nic) {
    fabric_.connect(*exchange_switch_, exch_port, nic, 0, access);
    exchange_switch_->bind_host(nic.ip(), nic.mac(), exch_port);
    ++exch_port;
  };
  net::PortId firm_port = 1;
  auto attach_firm_side = [&](net::Nic& nic) {
    fabric_.connect(*firm_switch_, firm_port, nic, 0, access);
    firm_switch_->bind_host(nic.ip(), nic.mac(), firm_port);
    ++firm_port;
  };
  attach_exchange_side(exchange_->feed_nic());
  attach_exchange_side(exchange_->order_nic());
  attach_firm_side(normalizer_->in_nic());
  attach_firm_side(normalizer_->out_nic());
  for (auto& strategy : strategies_) {
    attach_firm_side(strategy->md_nic());
    attach_firm_side(strategy->order_nic());
  }
  attach_firm_side(gateway_->client_nic());
  attach_firm_side(gateway_->upstream_nic());
}

sim::Duration MultiColoDeployment::wan_delay() const noexcept {
  return wan::propagation_delay(kExchangeColo, kFirmColo, colo_config_.wan_tech);
}

}  // namespace tsn::deploy
