#include "deploy/sharded_market.hpp"

#include <string>
#include <utility>

#include "book/flat_index.hpp"
#include "core/check.hpp"
#include "net/bridge.hpp"
#include "proto/partition.hpp"

namespace tsn::deploy {

namespace {

// The end-state digest. Everything funnels through 64-bit mixes so the
// digest is layout- and padding-independent.
using Digest = book::Fnv1a;

void mix_price(Digest& d, std::optional<proto::Price> price) noexcept {
  d.mix(price ? static_cast<std::uint64_t>(*price) + 1 : 0);
}

void mix_exchange(Digest& d, exchange::Exchange& exch) {
  const exchange::ExchangeStats& s = exch.stats();
  d.mix(s.feed_messages);
  d.mix(s.feed_datagrams);
  d.mix(s.orders_received);
  d.mix(s.orders_accepted);
  d.mix(s.orders_rejected);
  d.mix(s.cancels_received);
  d.mix(s.cancel_rejects);
  d.mix(s.fills_sent);
  for (const exchange::SymbolSpec& spec : exch.config().symbols) {
    book::OrderBook& book = exch.book(spec.symbol);
    const book::BestQuote best = book.best();
    mix_price(d, best.bid_price);
    d.mix(best.bid_quantity);
    mix_price(d, best.ask_price);
    d.mix(best.ask_quantity);
    d.mix(book.open_orders());
    d.mix(book.bid_levels());
    d.mix(book.ask_levels());
    d.mix(book.executions());
  }
}

void mix_normalizer(Digest& d, const trading::Normalizer& norm) {
  const trading::NormalizerStats& s = norm.stats();
  d.mix(s.datagrams_in);
  d.mix(s.messages_in);
  d.mix(s.updates_out);
  d.mix(s.datagrams_out);
  d.mix(s.bbo_updates);
  d.mix(s.unknown_orders);
  d.mix(s.sequence_gaps);
  d.mix(s.messages_lost);
  d.mix(s.resyncs_started);
  d.mix(s.resyncs_completed);
  d.mix(s.snapshot_orders_applied);
  d.mix(norm.tracked_orders());
}

void mix_bbos(Digest& d, const trading::Normalizer& norm, const exchange::Exchange& feed) {
  for (const exchange::SymbolSpec& spec : feed.config().symbols) {
    const auto bbo = norm.best_of(spec.symbol);
    d.mix(bbo ? 1 : 0);
    if (bbo) {
      d.mix(static_cast<std::uint64_t>(bbo->bid));
      d.mix(static_cast<std::uint64_t>(bbo->ask));
    }
  }
}

void mix_switch(Digest& d, const l2::CommoditySwitch& xsw) {
  const l2::SwitchStats& s = xsw.stats();
  d.mix(s.unicast_forwarded);
  d.mix(s.multicast_hw_forwarded);
  d.mix(s.multicast_sw_forwarded);
  d.mix(s.software_queue_drops);
  d.mix(s.no_route_drops);
  d.mix(s.no_group_drops);
  d.mix(s.igmp_processed);
  d.mix(s.replications);
}

void mix_fabric(Digest& d, const net::Fabric& fabric) {
  const net::LinkStats s = fabric.total_stats();
  d.mix(s.frames_delivered);
  d.mix(s.frames_dropped_queue);
  d.mix(s.frames_dropped_loss);
  d.mix(s.bytes_delivered);
  d.mix(static_cast<std::uint64_t>(s.max_queue_delay.picos()));
}

}  // namespace

ShardedMarket::ShardedMarket(sim::Engine& engine, const ShardedMarketConfig& config)
    : config_(config), plain_(&engine) {
  TSN_ASSERT(config_.partitions > 0, "a market needs at least one partition");
  for (std::size_t p = 0; p < config_.partitions; ++p) build_partition(p, engine);
  wire_cross_links();
}

ShardedMarket::ShardedMarket(sim::ShardedEngine& engine, const ShardedMarketConfig& config)
    : config_(config), sharded_(&engine) {
  TSN_ASSERT(config_.partitions > 0, "a market needs at least one partition");
  TSN_ASSERT(engine.domain_count() >= config_.partitions,
             "sharded market needs one domain per partition");
  for (std::size_t p = 0; p < config_.partitions; ++p) {
    build_partition(p, engine.domain(static_cast<sim::DomainId>(p)));
  }
  wire_cross_links();
}

void ShardedMarket::build_partition(std::size_t p, sim::Scheduler& scheduler) {
  auto partition = std::make_unique<Partition>(scheduler);
  const auto octet = static_cast<std::uint8_t>(p);
  const auto host_base = static_cast<std::uint32_t>(p) * 100;

  exchange::ExchangeConfig exchange_config;
  exchange_config.name = "EXCH" + std::to_string(p);
  exchange_config.exchange_id = static_cast<std::uint8_t>(p + 1);
  exchange_config.symbols = {
      {proto::Symbol{"AA" + std::to_string(p)}, proto::InstrumentKind::kEquity,
       proto::price_from_dollars(100)},
      {proto::Symbol{"BB" + std::to_string(p)}, proto::InstrumentKind::kEquity,
       proto::price_from_dollars(50)}};
  exchange_config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  exchange_config.feed_group_base = net::Ipv4Addr{239, 100, octet, 0};
  exchange_config.snapshot_group_base = net::Ipv4Addr{239, 101, octet, 0};
  exchange_config.snapshot_interval = sim::millis(std::int64_t{5});
  exchange_config.feed_mac = net::MacAddr::from_host_id(host_base + 1);
  exchange_config.feed_ip = net::Ipv4Addr{10, static_cast<std::uint8_t>(p + 1), 0, 1};
  exchange_config.order_mac = net::MacAddr::from_host_id(host_base + 2);
  exchange_config.order_ip = net::Ipv4Addr{10, static_cast<std::uint8_t>(p + 1), 0, 2};
  partition->exch = std::make_unique<exchange::Exchange>(scheduler, exchange_config);

  l2::CommoditySwitchConfig switch_config;
  switch_config.port_count = 8;
  partition->xsw = std::make_unique<l2::CommoditySwitch>(
      scheduler, "xsw" + std::to_string(p), switch_config);

  trading::NormalizerConfig norm_config;
  norm_config.exchange_id = static_cast<std::uint8_t>(p + 1);
  norm_config.feed_groups = {partition->exch->unit_group(0)};
  norm_config.snapshot_groups = {partition->exch->snapshot_group(0)};
  norm_config.exchange_partitioning = std::make_shared<proto::HashPartition>(1);
  norm_config.partitioning = std::make_shared<proto::HashPartition>(2);
  norm_config.in_mac = net::MacAddr::from_host_id(host_base + 10);
  norm_config.in_ip = net::Ipv4Addr{10, static_cast<std::uint8_t>(p + 1), 1, 1};
  norm_config.out_mac = net::MacAddr::from_host_id(host_base + 11);
  norm_config.out_ip = net::Ipv4Addr{10, static_cast<std::uint8_t>(p + 1), 1, 2};
  partition->norm = std::make_unique<trading::Normalizer>(scheduler, norm_config);

  // Exchange feed into the switch, local normalizer on a full cable (its
  // IGMP joins flow back up and install the local mroutes).
  net::Link& to_xsw = partition->fabric.make_link(
      "exch" + std::to_string(p) + "->xsw", net::LinkConfig{}, *partition->xsw, kIngressPort);
  partition->exch->feed_nic().attach_port(0, to_xsw);
  partition->fabric.connect(*partition->xsw, kLocalPort, partition->norm->in_nic(), 0,
                            net::LinkConfig{});

  if (config_.partitions > 1) {
    // The observer consumes the ring-previous partition's incremental feed.
    // Its uplink never exists (the remote link is one-way), so it gets no
    // snapshot channel: the MAC filter comes from join_feeds(), whose IGMP
    // report vanishes on the unattached egress — identically in the plain
    // and sharded builds.
    const std::size_t source =
        (p + config_.partitions - 1) % config_.partitions;
    trading::NormalizerConfig observer_config;
    observer_config.exchange_id = static_cast<std::uint8_t>(source + 1);
    observer_config.feed_groups = {
        net::Ipv4Addr{239, 100, static_cast<std::uint8_t>(source), 0}};
    observer_config.exchange_partitioning = std::make_shared<proto::HashPartition>(1);
    observer_config.partitioning = std::make_shared<proto::HashPartition>(2);
    observer_config.in_mac = net::MacAddr::from_host_id(host_base + 20);
    observer_config.in_ip = net::Ipv4Addr{10, static_cast<std::uint8_t>(p + 1), 2, 1};
    observer_config.out_mac = net::MacAddr::from_host_id(host_base + 21);
    observer_config.out_ip = net::Ipv4Addr{10, static_cast<std::uint8_t>(p + 1), 2, 2};
    partition->observer = std::make_unique<trading::Normalizer>(scheduler, observer_config);

    // No IGMP can cross the one-way inter-partition link, so the remote
    // egress gets a static mroute for this partition's feed group.
    partition->xsw->join_group(partition->exch->unit_group(0), kRemotePort);
  }

  partitions_.push_back(std::move(partition));
}

void ShardedMarket::wire_cross_links() {
  if (config_.partitions <= 1) return;
  net::LinkConfig cross;
  cross.propagation = config_.cross_propagation;
  for (std::size_t src = 0; src < config_.partitions; ++src) {
    const std::size_t dst = (src + 1) % config_.partitions;
    Partition& from = *partitions_[src];
    Partition& to = *partitions_[dst];
    const std::string name = "x" + std::to_string(src) + "->" + std::to_string(dst);
    if (sharded_ != nullptr) {
      net::Link& link = from.fabric.make_remote_link(name, cross);
      net::bridge_domains(*sharded_, sharded_->domain(static_cast<sim::DomainId>(src)), link,
                          sharded_->domain(static_cast<sim::DomainId>(dst)),
                          to.fabric.packets(), to.observer->in_nic(), 0);
      from.xsw->attach_port(kRemotePort, link);
    } else {
      net::Link& link = from.fabric.make_link(name, cross, to.observer->in_nic(), 0);
      from.xsw->attach_port(kRemotePort, link);
    }
  }
}

void ShardedMarket::run() {
  const sim::Time end = sim::Time::zero() + config_.run_for;
  exchange::ActivityConfig activity;
  activity.events_per_second = config_.events_per_second;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    Partition& partition = *partitions_[p];
    partition.exch->start_snapshots();
    partition.norm->join_feeds();
    if (partition.observer) partition.observer->join_feeds();
    partition.driver = std::make_unique<exchange::MarketActivityDriver>(
        *partition.exch, activity, config_.seed + p);
    partition.driver->run_until(end);
  }
  const sim::Time stop = end + config_.drain;
  if (sharded_ != nullptr) {
    sharded_->run_until(stop);
  } else {
    plain_->run_until(stop);
  }
}

std::uint64_t ShardedMarket::digest() {
  // Seeded with 1469598103934665603, the FNV offset basis short its last
  // decimal digit, as this digest always has been: the seed keeps every
  // digest comparable with those of earlier versions.
  Digest d{1469598103934665603ULL};
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    Partition& partition = *partitions_[p];
    d.mix(p);
    mix_exchange(d, *partition.exch);
    if (partition.driver) {
      const exchange::ActivityStats& a = partition.driver->stats();
      d.mix(a.adds);
      d.mix(a.cancels);
      d.mix(a.replaces);
      d.mix(a.crosses);
      d.mix(partition.driver->resting_orders());
    }
    mix_normalizer(d, *partition.norm);
    mix_bbos(d, *partition.norm, *partition.exch);
    if (partition.observer) {
      const std::size_t source = (p + partitions_.size() - 1) % partitions_.size();
      mix_normalizer(d, *partition.observer);
      mix_bbos(d, *partition.observer, *partitions_[source]->exch);
    }
    mix_switch(d, *partition.xsw);
    mix_fabric(d, partition.fabric);
  }
  return d.hash;
}

void ShardedMarket::register_partition_metrics(std::size_t partition,
                                               telemetry::Registry& registry) {
  Partition& part = *partitions_[partition];
  const std::string prefix = "p" + std::to_string(partition);
  part.exch->register_metrics(registry, prefix + ".exch");
  part.xsw->register_metrics(registry, prefix + ".l2");
  part.norm->register_metrics(registry, prefix + ".norm");
  if (part.observer) part.observer->register_metrics(registry, prefix + ".obs");
  part.fabric.register_metrics(registry, prefix + ".fabric");
}

}  // namespace tsn::deploy
