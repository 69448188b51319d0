// S1 — §3/§4.3: partition growth vs what each design can deliver.
//
// The paper: one representative strategy's partition count roughly doubled
// from ~600 to over 1300 in two years. This bench projects that demand
// forward and asks, year by year: does it fit the commodity mroute table,
// and how wide do L1S merges have to get when strategies only have a few
// market-data NICs?
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "cluster/manager.hpp"
#include "core/mcast_analysis.hpp"
#include "deploy/sharded_market.hpp"
#include "l2/trends.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "telemetry/report.hpp"

int main() {
  using namespace tsn;
  std::printf("S1: partition scaling (600 -> 1300 in two years, and onward)\n\n");

  bench::Report bench_report{"partition_scaling",
                             "Partition growth vs mroute capacity and L1S merges"};

  core::PartitionDemandModel demand;
  bool ever_overflows = false;
  std::printf("%6s %12s %14s %10s\n", "year", "partitions", "mroute-cap", "fits");
  for (int year = 2020; year <= 2028; ++year) {
    const auto report = core::mcast_capacity_at(year, demand);
    std::printf("%6d %12zu %14zu %10s\n", year, report.demand, report.capacity,
                report.fits ? "yes" : "NO");
    bench_report.metric("year" + std::to_string(year) + ".demand",
                        static_cast<double>(report.demand), "partitions");
    ever_overflows = ever_overflows || !report.fits;
  }
  // §3's trajectory: demand eventually outruns the hardware table.
  bench_report.check("demand_outruns_capacity", ever_overflows);

  // L1S subscription planning: a strategy subscribing to k of the firm's
  // partitions with a fixed market-data NIC budget. Partition activity is
  // Zipf-weighted, so dedicated NICs soak up most of the traffic but the
  // merged remainder keeps growing.
  std::printf("\nL1S subscription plans (market-data NICs per strategy = 3):\n");
  std::printf("%14s %12s %12s %18s\n", "subscriptions", "dedicated", "merged",
              "merged traffic");
  sim::Rng rng{99};
  for (std::uint32_t subs : {2u, 3u, 8u, 32u, 128u, 600u, 1300u}) {
    cluster::ClusterManager mgr;
    cluster::Job strategy;
    strategy.id = 1;
    strategy.kind = cluster::JobKind::kStrategy;
    std::unordered_map<std::uint32_t, double> weight;
    double total_weight = 0.0;
    for (std::uint32_t p = 0; p < subs; ++p) {
      strategy.partitions.push_back(p);
      weight[p] = 1.0 / static_cast<double>(p + 1);  // Zipf-ish activity
      total_weight += weight[p];
    }
    mgr.add_job(strategy);
    const auto plans = mgr.plan_l1s_subscriptions(3, weight);
    const auto& plan = plans.front();
    double merged_weight = 0.0;
    for (const auto p : plan.merged) merged_weight += weight[p];
    std::printf("%14u %12zu %12zu %16.1f%%\n", subs, plan.dedicated.size(),
                plan.merged.size(), 100.0 * merged_weight / total_weight);
    const std::string prefix = "subs" + std::to_string(subs);
    bench_report.metric(prefix + ".dedicated", static_cast<double>(plan.dedicated.size()),
                        "nics");
    bench_report.metric(prefix + ".merged", static_cast<double>(plan.merged.size()),
                        "partitions");
    bench_report.metric(prefix + ".merged_traffic", 100.0 * merged_weight / total_weight,
                        "%");
    if (subs <= 3) {
      bench_report.check(prefix + ".fits_without_merge", plan.merged.empty());
    }
    if (subs >= 600) {
      bench_report.check(prefix + ".merge_required", plan.merged.size() > subs / 2);
    }
  }
  std::printf("\n(paper §4.3: limiting subscriptions means normalizers \"cannot be\n"
              "partitioned as widely, leading to increased latency and reduced\n"
              "performance\" — the merged share above is the traffic at risk of\n"
              "burst congestion on the shared NIC)\n");

  // Sharded simulation: the same partition-growth story from the simulator's
  // side. A 4-partition market runs one shard per partition under
  // conservative lookahead windows. Every windowed run must land on the
  // golden digest; the wall-clock rows are informational, because wall
  // clock on a shared CI box is too noisy to gate.
  std::printf("\nSharded engine: 4-partition market, conservative lookahead windows\n");
  deploy::ShardedMarketConfig market_config;
  market_config.partitions = 4;
  market_config.seed = 5;
  market_config.events_per_second = 20'000.0;
  market_config.run_for = sim::millis(std::int64_t{40});

  // Wall ms of one market run on `engine` (plain or sharded), and its
  // end-state digest.
  const auto timed_run = [](auto& engine, const deploy::ShardedMarketConfig& config,
                            std::uint64_t& digest) {
    deploy::ShardedMarket market{engine, config};
    const auto wall_start = std::chrono::steady_clock::now();
    market.run();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  wall_start)
            .count();
    digest = market.digest();
    return wall_ms;
  };

  std::uint64_t golden_digest = 0;
  std::uint64_t total_events = 0;
  {
    sim::ShardedEngine engine{
        {.domains = market_config.partitions, .mode = sim::SyncMode::kGolden}};
    deploy::ShardedMarket market{engine, market_config};
    market.run();
    golden_digest = market.digest();
    total_events = engine.events_fired();
  }
  std::printf("%12s %14s %14s %12s\n", "workers", "events", "wall-ms", "digest-ok");
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    sim::ShardedEngine engine{{.domains = market_config.partitions,
                               .num_workers = workers,
                               .mode = sim::SyncMode::kWindowed}};
    std::uint64_t digest = 0;
    const double wall_ms = timed_run(engine, market_config, digest);
    const bool digest_ok = digest == golden_digest;
    std::printf("%12u %14llu %14.1f %12s\n", workers,
                static_cast<unsigned long long>(engine.events_fired()), wall_ms,
                digest_ok ? "yes" : "NO");
    const std::string prefix = "shard.workers" + std::to_string(workers);
    bench_report.metric(prefix + ".wall_ms", wall_ms, "ms");
    bench_report.check(prefix + ".digest_matches_golden", digest_ok);
  }
  bench_report.metric("shard.events_total", static_cast<double>(total_events), "events");

  // Measured parallel speedup at 200k events/s per partition: one plain
  // Engine against 4-worker windowed mode on the same rig, each side's best
  // of three runs.
  deploy::ShardedMarketConfig busy_config = market_config;
  busy_config.events_per_second = 200'000.0;
  double plain_ms = 0.0;
  double windowed_ms = 0.0;
  bool busy_digest_ok = true;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t plain_digest = 0;
    std::uint64_t windowed_digest = 0;
    sim::Engine plain;
    const double p = timed_run(plain, busy_config, plain_digest);
    sim::ShardedEngine engine{{.domains = busy_config.partitions,
                               .num_workers = 4,
                               .mode = sim::SyncMode::kWindowed}};
    const double w = timed_run(engine, busy_config, windowed_digest);
    plain_ms = rep == 0 ? p : std::min(plain_ms, p);
    windowed_ms = rep == 0 ? w : std::min(windowed_ms, w);
    busy_digest_ok = busy_digest_ok && windowed_digest == plain_digest;
  }
  std::printf("200k ev/s per partition: plain %.1f ms, 4-worker windowed %.1f ms (%.2fx)\n",
              plain_ms, windowed_ms, plain_ms / windowed_ms);
  bench_report.metric("shard.wall_speedup", plain_ms / windowed_ms, "x");
  bench_report.check("shard.busy_digest_matches_plain", busy_digest_ok);

  return bench_report.finish();
}
