// Multi-partition market deployment for the sharded simulation engine.
//
// Each partition is a self-contained market region — exchange, activity
// driver, A-feed switch, and a local normalizer — plus an *observer*
// normalizer that consumes the previous partition's feed, so market data
// crosses partition boundaries in a ring. The rig builds in two modes over
// byte-identical component wiring:
//
//   * plain:   every partition schedules on one `sim::Engine`; the
//              cross-partition feed rides an ordinary local link.
//   * sharded: partition p lives on `ShardedEngine::domain(p)`; the
//              cross-partition feed rides a bridged remote link
//              (net/bridge.hpp), whose propagation delay bounds the
//              engine's conservative lookahead.
//
// Because the link model runs identically up to the delivery hop and the
// bridged rebuild preserves frame bytes, id, and origin timestamp, the two
// modes — and golden vs windowed execution at any worker count — converge
// to the same end state. `digest()` folds every partition's books, stats,
// and counters into one value so drills can assert exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "l2/commodity_switch.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "telemetry/metrics.hpp"
#include "trading/normalizer.hpp"

namespace tsn::deploy {

struct ShardedMarketConfig {
  std::uint16_t partitions = 4;
  std::uint64_t seed = 7;
  double events_per_second = 20'000.0;
  sim::Duration run_for = sim::millis(std::int64_t{50});
  // Extra engine time past the last market event so in-flight datagrams and
  // timers drain deterministically.
  // tsn-lint: allow(unset-option) read by perfbench, which changes only with the benchmark
  sim::Duration drain = sim::millis(std::int64_t{5});
};

class ShardedMarket {
 public:
  // Plain build: all partitions on one engine, cross links local.
  ShardedMarket(sim::Engine& engine, const ShardedMarketConfig& config);
  // Sharded build: partition p on engine.domain(p); requires
  // engine.domain_count() >= config.partitions. Cross links are bridged.
  ShardedMarket(sim::ShardedEngine& engine, const ShardedMarketConfig& config);
  ShardedMarket(const ShardedMarket&) = delete;
  ShardedMarket& operator=(const ShardedMarket&) = delete;

  // Starts snapshots, feed joins, and activity drivers, then runs the
  // engine through run_for + drain.
  void run();

  // FNV-1a over every partition's end state: exchange/activity/normalizer/
  // observer/switch/fabric counters and full book summaries. Two runs that
  // executed the same events in an equivalent order agree exactly.
  [[nodiscard]] std::uint64_t digest();

  // Exports partition p's component gauges under "p<p>.<component>".
  // Registered on a caller-owned registry so determinism drills can diff
  // the JSON snapshots of independent runs byte-for-byte.
  // tsn-lint: allow(unreached-member) the shard drills diff each partition's registry JSON
  void register_partition_metrics(std::size_t partition, telemetry::Registry& registry);

  [[nodiscard]] std::uint16_t partition_count() const noexcept {
    return config_.partitions;
  }
  [[nodiscard]] exchange::Exchange& exch(std::size_t partition) noexcept {
    return *partitions_[partition]->exch;
  }
  [[nodiscard]] trading::Normalizer& norm(std::size_t partition) noexcept {
    return *partitions_[partition]->norm;
  }
  // The observer consuming partition ((p + n - 1) % n)'s feed; null when
  // the deployment has a single partition (no ring).
  [[nodiscard]] trading::Normalizer* observer(std::size_t partition) noexcept {
    return partitions_[partition]->observer.get();
  }
  [[nodiscard]] l2::CommoditySwitch& xsw(std::size_t partition) noexcept {
    return *partitions_[partition]->xsw;
  }

 private:
  static constexpr net::PortId kIngressPort = 0;  // exchange feed in
  static constexpr net::PortId kLocalPort = 1;    // local normalizer
  static constexpr net::PortId kRemotePort = 2;   // next partition's observer

  struct Partition {
    explicit Partition(sim::Scheduler& scheduler) : fabric(scheduler) {}
    net::Fabric fabric;
    std::unique_ptr<exchange::Exchange> exch;
    std::unique_ptr<l2::CommoditySwitch> xsw;
    std::unique_ptr<trading::Normalizer> norm;
    std::unique_ptr<trading::Normalizer> observer;
    std::unique_ptr<exchange::MarketActivityDriver> driver;
  };

  void build_partition(std::size_t p, sim::Scheduler& scheduler);
  void wire_cross_links();

  ShardedMarketConfig config_;
  sim::Engine* plain_ = nullptr;
  sim::ShardedEngine* sharded_ = nullptr;
  std::vector<std::unique_ptr<Partition>> partitions_;
};

}  // namespace tsn::deploy
