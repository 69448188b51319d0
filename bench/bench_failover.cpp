// S3 — hot-standby replication and deterministic failover.
//
// A primary exchange under storm-generator load streams its admitted input
// sequence to a hot-standby backup over the replication bridge; a
// FailoverController watches the backup's heartbeat watermark. The bench
// measures two things the failover drills assert but do not quantify:
//
//   replication.applied_per_s — records applied by the standby per sim
//       second while the primary carries live session churn
//   failover.recoveries_per_s — 1 / recovery, where recovery spans the
//       primary's last heartbeat to the backup serving (sim time)
//
// Both are sim-time rates, byte-identical on every machine, so
// bench_compare gates them hard. replication.lag_msgs and
// failover.recovery_ms ride along as informational rows with explicit
// ceiling checks — the same bounds the failover drill tier enforces.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "exchange/exchange.hpp"
#include "exchange/failover.hpp"
#include "exchange/loadgen.hpp"
#include "exchange/replica.hpp"
#include "net/fabric.hpp"
#include "proto/partition.hpp"
#include "sim/engine.hpp"
#include "telemetry/report.hpp"

namespace {

tsn::exchange::ExchangeConfig exchange_config(const char* name, std::uint64_t feed_host,
                                              tsn::net::Ipv4Addr feed_ip,
                                              std::uint64_t order_host,
                                              tsn::net::Ipv4Addr order_ip) {
  using namespace tsn;
  exchange::ExchangeConfig config;
  config.name = name;
  config.symbols = {{proto::Symbol{"AAPL"}}, {proto::Symbol{"MSFT"}},
                    {proto::Symbol{"NVDA"}}, {proto::Symbol{"AMZN"}}};
  config.feed_partitioning = std::make_shared<proto::AlphabetPartition>(2);
  config.heartbeat_interval = sim::millis(std::int64_t{5});
  config.session_timeout = sim::millis(std::int64_t{50});
  config.feed_mac = net::MacAddr::from_host_id(feed_host);
  config.feed_ip = feed_ip;
  config.order_mac = net::MacAddr::from_host_id(order_host);
  config.order_ip = order_ip;
  return config;
}

}  // namespace

int main() {
  using namespace tsn;

  constexpr std::uint32_t kSessions = 2'000;
  constexpr std::int64_t kCrashMs = 25;
  constexpr std::int64_t kRecoveryCeilingMs = 5;
  constexpr std::uint32_t kLagCeilingMsgs = 64;

  std::printf("S3: hot-standby replication + failover (%u sessions, crash at %lldms)\n\n",
              kSessions, static_cast<long long>(kCrashMs));

  bench::Report report{"failover",
                       "Hot-standby replication throughput and failover recovery"};
  report.param("sessions", std::int64_t{kSessions});
  report.param("crash_ms", kCrashMs);
  report.param("recovery_ceiling_ms", kRecoveryCeilingMs);
  report.param("lag_ceiling_msgs", std::int64_t{kLagCeilingMsgs});

  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange primary{
      engine, exchange_config("PRIM", 1, net::Ipv4Addr{10, 3, 0, 1}, 2,
                              net::Ipv4Addr{10, 3, 0, 2})};
  exchange::Exchange backup{
      engine, exchange_config("BACK", 3, net::Ipv4Addr{10, 3, 0, 3}, 4,
                              net::Ipv4Addr{10, 3, 0, 4})};
  backup.set_feed_muted(true);
  backup.set_accepting(false);

  exchange::ReplicaConfig scfg;
  scfg.name = "repl-pri";
  scfg.local_mac = net::MacAddr::from_host_id(5);
  scfg.local_ip = net::Ipv4Addr{10, 3, 0, 5};
  scfg.peer_mac = net::MacAddr::from_host_id(6);
  scfg.peer_ip = net::Ipv4Addr{10, 3, 0, 6};
  scfg.local_port = 36000;
  scfg.peer_port = 36001;
  exchange::ReplicaConfig acfg = scfg;
  acfg.name = "repl-bak";
  std::swap(acfg.local_mac, acfg.peer_mac);
  std::swap(acfg.local_ip, acfg.peer_ip);
  std::swap(acfg.local_port, acfg.peer_port);

  exchange::ReplicaStream stream{engine, primary, scfg};
  exchange::ReplicaApplier applier{engine, backup, acfg};
  fabric.connect(stream.nic(), 0, applier.nic(), 0, net::LinkConfig{});
  exchange::FailoverController controller{engine, backup, applier};

  exchange::LoadGenConfig gcfg;
  gcfg.sessions = kSessions;
  gcfg.seed = 11;
  gcfg.logins_per_tick = 1'000;
  gcfg.steady_interval_ticks = 16;  // brisk rotation: real replication load
  gcfg.target_open_orders = 2;
  gcfg.burst_size = 2;
  exchange::LoadGen gen{engine, primary, gcfg};

  primary.start_heartbeats();
  backup.start_heartbeats();
  stream.start();
  applier.start();
  controller.start();
  gen.start();

  const auto at = [](std::int64_t ms) { return sim::Time() + sim::millis(ms); };
  const auto sim_seconds = [](sim::Duration d) {
    return static_cast<double>(d.picos()) * 1e-12;
  };
  const auto wall_start = std::chrono::steady_clock::now();

  // --- replication under churn --------------------------------------------
  engine.run_until(at(kCrashMs));
  report.check("all_admitted", gen.all_admitted(),
               "every session logged in and acked before the crash window");
  const std::uint64_t applied = applier.stats().records_applied;
  const double window_s = sim_seconds(at(kCrashMs) - sim::Time());
  const double applied_per_s = static_cast<double>(applied) / window_s;
  report.metric("replication.applied_per_s", applied_per_s, "records/s");
  report.check("replication_nonzero", applied > 0,
               "standby must have applied the primary's input sequence");
  report.metric("replication.lag_msgs", static_cast<double>(applier.stats().lag_max),
                "msgs");
  report.check("lag_bounded", applier.stats().lag_max < kLagCeilingMsgs,
               "flushed-vs-applied gap at heartbeats stays within the ceiling");
  report.check("digests_clean",
               applier.stats().digests_checked > 0 &&
                   applier.stats().digest_mismatches == 0,
               "every quiescent-point state digest matched");
  std::printf("replication: %llu records in %.0f sim-ms (%.3g /s), lag max %u\n",
              static_cast<unsigned long long>(applied), window_s * 1e3, applied_per_s,
              applier.stats().lag_max);

  // --- crash and promote ----------------------------------------------------
  primary.crash();
  stream.crash();
  engine.run_until(at(kCrashMs + 10));
  const bool promoted = controller.state() == exchange::FailoverState::kActive;
  report.check("promoted", promoted, "backup reached kActive after the crash");
  const double recovery_s = promoted ? sim_seconds(controller.recovery_duration()) : 0.0;
  const double recovery_ms = recovery_s * 1e3;
  report.metric("failover.recovery_ms", recovery_ms, "ms");
  report.metric("failover.recoveries_per_s", promoted ? 1.0 / recovery_s : 0.0,
                "recoveries/s");
  report.check("recovery_under_ceiling",
               promoted && recovery_ms < static_cast<double>(kRecoveryCeilingMs),
               "last-heartbeat-to-serving within the drill ceiling");
  std::printf("failover: promoted in %.3f sim-ms (last heartbeat to serving)\n",
              recovery_ms);

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  report.metric("wall.total_ms", wall_ms, "ms");
  std::printf("wall: %.0f ms for the full scenario\n", wall_ms);

  return report.finish();
}
