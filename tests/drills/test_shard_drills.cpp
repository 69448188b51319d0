// Shard-determinism drills: the multi-partition market deployment run on
// the sharded engine must converge to the same end state as the
// single-threaded golden reference, at any worker count, on every run.
//
// Three gates:
//   * golden vs plain Engine — the same rig over both schedulers lands on
//     the same digest (the bridged links change only the delivery hop);
//   * golden vs windowed at 1, 2, 3, 4 and 16 workers — digest equality;
//   * run-twice — a windowed run repeated with the same seed exports
//     byte-identical telemetry JSON (and digests).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "deploy/sharded_market.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::drills {
namespace {

deploy::ShardedMarketConfig drill_market() {
  deploy::ShardedMarketConfig config;
  config.partitions = 4;
  config.seed = 11;
  config.events_per_second = 20'000.0;
  config.run_for = sim::millis(std::int64_t{40});
  return config;
}

struct RunResult {
  std::uint64_t digest = 0;
  std::string metrics_json;
};

RunResult run_plain(const deploy::ShardedMarketConfig& config) {
  sim::Engine engine;
  deploy::ShardedMarket market{engine, config};
  market.run();
  RunResult result;
  result.digest = market.digest();
  telemetry::Registry registry;
  for (std::size_t p = 0; p < config.partitions; ++p) {
    market.register_partition_metrics(p, registry);
  }
  result.metrics_json = registry.to_json(engine.now());
  return result;
}

RunResult run_sharded(const deploy::ShardedMarketConfig& config, sim::SyncMode mode,
                      std::uint32_t workers) {
  sim::ShardedEngine engine{
      {.domains = config.partitions, .num_workers = workers, .mode = mode}};
  deploy::ShardedMarket market{engine, config};
  market.run();
  RunResult result;
  result.digest = market.digest();
  telemetry::Registry registry;
  for (std::size_t p = 0; p < config.partitions; ++p) {
    market.register_partition_metrics(p, registry);
  }
  result.metrics_json = registry.to_json(engine.now());
  return result;
}

TEST(ShardDrills, GoldenShardingMatchesThePlainEngine) {
  const deploy::ShardedMarketConfig config = drill_market();
  const RunResult plain = run_plain(config);
  const RunResult golden = run_sharded(config, sim::SyncMode::kGolden, 1);
  EXPECT_EQ(golden.digest, plain.digest);
  EXPECT_EQ(golden.metrics_json, plain.metrics_json);
}

TEST(ShardDrills, ParallelDigestsMatchGoldenAtEveryWorkerCount) {
  const deploy::ShardedMarketConfig config = drill_market();
  const RunResult golden = run_sharded(config, sim::SyncMode::kGolden, 1);
  ASSERT_NE(golden.digest, 0u);
  for (const std::uint32_t workers : {1u, 2u, 3u, 4u, 16u}) {
    const RunResult windowed = run_sharded(config, sim::SyncMode::kWindowed, workers);
    EXPECT_EQ(windowed.digest, golden.digest) << "workers=" << workers;
    EXPECT_EQ(windowed.metrics_json, golden.metrics_json) << "workers=" << workers;
  }
}

TEST(ShardDrills, WindowedRunsAreByteIdenticalAcrossRepeats) {
  const deploy::ShardedMarketConfig config = drill_market();
  const RunResult first = run_sharded(config, sim::SyncMode::kWindowed, 4);
  const RunResult second = run_sharded(config, sim::SyncMode::kWindowed, 4);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(ShardDrills, CrossPartitionFeedReachesTheObservers) {
  // The ring actually carries data: every observer decodes the previous
  // partition's feed gap-free and reconstructs its books.
  const deploy::ShardedMarketConfig config = drill_market();
  sim::ShardedEngine engine{{.domains = config.partitions, .num_workers = 4}};
  deploy::ShardedMarket market{engine, config};
  market.run();
  for (std::size_t p = 0; p < config.partitions; ++p) {
    ASSERT_NE(market.observer(p), nullptr);
    const trading::NormalizerStats& stats = market.observer(p)->stats();
    EXPECT_GT(stats.datagrams_in, 0u) << "partition " << p;
    EXPECT_GT(stats.bbo_updates, 0u) << "partition " << p;
    EXPECT_EQ(stats.sequence_gaps, 0u) << "partition " << p;
    const std::size_t source = (p + config.partitions - 1) % config.partitions;
    EXPECT_EQ(market.observer(p)->tracked_orders(),
              market.norm(source).tracked_orders())
        << "partition " << p;
  }
}

TEST(ShardDrills, SinglePartitionDegeneratesCleanly) {
  deploy::ShardedMarketConfig config = drill_market();
  config.partitions = 1;
  config.run_for = sim::millis(std::int64_t{10});
  const RunResult plain = run_plain(config);
  const RunResult sharded = run_sharded(config, sim::SyncMode::kWindowed, 2);
  EXPECT_EQ(sharded.digest, plain.digest);
}

}  // namespace
}  // namespace tsn::drills
