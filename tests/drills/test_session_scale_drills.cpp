// Session-scale drills: 100k concurrent order-entry sessions driven by the
// storm load generator, with a 10k-session reconnect storm in one sim tick.
//
// Gates:
//   * recovery — every storm victim re-logs in, replays the journal tail it
//     missed, re-rests its cancel-on-disconnect'ed orders, and the whole
//     cohort is ready again within the recovery ceiling (sim time);
//   * parity — after the churn quiesces, a scripted counter-flow sweeps ALL
//     resting depth; per-session positions and open-order counts in the
//     storm rig equal a never-disconnected control rig (no order lost, none
//     duplicated by resubmission);
//   * determinism — two storm runs with the same seed produce byte-identical
//     telemetry JSON and equal load-generator fingerprints.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exchange/exchange.hpp"
#include "exchange/loadgen.hpp"
#include "fault/injector.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::drills {
namespace {

constexpr std::uint32_t kSessions = 100'000;
constexpr std::uint32_t kStormKill = 10'000;
constexpr std::uint32_t kTargetOpen = 2;
constexpr proto::Quantity kQuantity = 100;
// Same ceiling bench_session_scale enforces: a 10k-session storm must be
// fully recovered (login + replay + re-rest, all acked) within this.
constexpr std::int64_t kRecoveryCeilingMs = 10;

exchange::ExchangeConfig rig_exchange_config() {
  exchange::ExchangeConfig config;
  config.name = "SCALE";
  config.symbols = {{proto::Symbol{"AAPL"}}, {proto::Symbol{"MSFT"}},
                    {proto::Symbol{"NVDA"}}, {proto::Symbol{"AMZN"}}};
  config.feed_partitioning = std::make_shared<proto::AlphabetPartition>(2);
  config.cancel_on_disconnect = true;
  config.heartbeat_interval = sim::millis(std::int64_t{5});
  config.session_timeout = sim::millis(std::int64_t{50});
  config.session_shards = 128;
  config.sharded_liveness_sweep = true;
  config.expected_sessions = kSessions + kSessions / 8;
  config.expected_open_orders = static_cast<std::size_t>(kSessions) * 8;
  config.expected_journal_bytes = std::size_t{96} << 20;
  return config;
}

exchange::LoadGenConfig rig_loadgen_config() {
  exchange::LoadGenConfig config;
  config.sessions = kSessions;
  config.seed = 7;
  config.logins_per_tick = 5'000;
  config.target_open_orders = kTargetOpen;
  config.burst_size = 2;
  config.quantity = kQuantity;
  return config;
}

struct RigResult {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  std::vector<std::int64_t> positions;     // per session, after the sweep
  std::vector<std::uint32_t> open_counts;  // per session, before the sweep
  std::uint64_t cod_sessions = 0;
  std::uint64_t resting_before_sweep = 0;
  std::uint64_t resting_after_sweep = 0;
  sim::Duration recovery;
  std::uint32_t storm_dropped = 0;
  exchange::LoadGenStats stats;
};

RigResult run_rig(bool storm) {
  sim::Engine engine;
  exchange::Exchange ex{engine, rig_exchange_config()};
  exchange::LoadGen gen{engine, ex, rig_loadgen_config()};
  ex.start_heartbeats();
  gen.start();

  const auto at = [&](std::int64_t ms) { return sim::Time() + sim::millis(ms); };
  // The storm rides the fault injector — a scheduled correlated-reconnect
  // fault, same as a scripted switch reboot — so the drill also covers the
  // kSessionStorm fault path end to end.
  fault::FaultInjector injector{engine};
  injector.register_storm("loadgen",
                          [&gen](std::uint32_t count) { return gen.storm(count); });
  if (storm) {
    injector.schedule({at(8), fault::FaultKind::kSessionStorm, "loadgen",
                       static_cast<double>(kStormKill)});
  }

  engine.run_until(at(5));
  EXPECT_TRUE(gen.all_admitted()) << "admission ramp incomplete at 5ms";

  RigResult result;
  engine.run_until(at(8));
  if (storm) {
    EXPECT_EQ(injector.log().size(), 1u);
    if (!injector.log().empty()) {
      EXPECT_EQ(injector.log().front().kind, fault::FaultKind::kSessionStorm);
      result.storm_dropped = static_cast<std::uint32_t>(injector.log().front().value);
    }
    EXPECT_EQ(result.storm_dropped, kStormKill);
    engine.run_until(at(14));
    EXPECT_TRUE(gen.storm_recovered()) << "storm cohort not recovered by 14ms";
    result.recovery = gen.storm_recovery_duration();
  }
  // Churn on: storm victims re-converge onto the steady rotation cadence.
  engine.run_until(at(24));
  gen.stop();
  // Quiesce: in-flight orders, cancels and journal flushes settle.
  engine.run_until(at(27));

  result.open_counts.resize(kSessions);
  for (std::uint32_t s = 0; s < kSessions; ++s) result.open_counts[s] = gen.open_orders(s);
  result.resting_before_sweep = ex.session_store().open_orders_total();

  // Counter-flow: one giant immediate-or-cancel buy per symbol sweeps every
  // resting sell. Per-session fill quantity then equals (open orders x
  // quantity) regardless of price levels — the parity probe.
  const proto::Quantity sweep_qty = kSessions * 8u * kQuantity;
  for (const auto& spec : ex.symbols()) {
    const book::Order order{ex.next_order_id(), proto::Side::kBuy,
                            proto::price_from_dollars(100'000.0), sweep_qty};
    (void)ex.book(spec.symbol).submit(order, /*immediate_or_cancel=*/true);
  }
  engine.run_until(at(29));
  result.resting_after_sweep = ex.session_store().open_orders_total();

  result.positions.resize(kSessions);
  for (std::uint32_t s = 0; s < kSessions; ++s) result.positions[s] = gen.position(s);
  result.fingerprint = gen.fingerprint();
  result.cod_sessions = ex.stats().cod_sessions;
  result.stats = gen.stats();

  telemetry::Registry registry;
  ex.register_metrics(registry, "scale.exchange");
  gen.register_metrics(registry, "scale.loadgen");
  result.metrics_json = registry.to_json(engine.now());
  return result;
}

TEST(SessionScaleDrills, StormRecoveryParityAndDeterminism) {
  const RigResult control = run_rig(/*storm=*/false);
  const RigResult storm_a = run_rig(/*storm=*/true);
  const RigResult storm_b = run_rig(/*storm=*/true);

  // --- recovery ---------------------------------------------------------
  EXPECT_EQ(storm_a.storm_dropped, kStormKill);
  EXPECT_LT(storm_a.recovery.picos(), sim::millis(kRecoveryCeilingMs).picos())
      << "storm recovery took " << storm_a.recovery.picos() / 1'000'000'000 << "us";
  // Every victim's resting orders were pulled by cancel-on-disconnect (the
  // flapper persona adds its own sweeps on top).
  EXPECT_GE(storm_a.cod_sessions, kStormKill);
  EXPECT_GT(storm_a.stats.cod_cancels_seen, 0u);
  EXPECT_GT(storm_a.stats.cod_resubmitted, 0u);
  EXPECT_GT(storm_a.stats.replays_requested, 0u);
  EXPECT_EQ(control.storm_dropped, 0u);

  // --- parity vs the never-disconnected control -------------------------
  // The sweep consumed every resting order in both rigs...
  EXPECT_EQ(storm_a.resting_after_sweep, 0u);
  EXPECT_EQ(control.resting_after_sweep, 0u);
  // ...so equal per-session positions mean recovery neither lost orders
  // nor let a resubmission double-rest one.
  EXPECT_EQ(storm_a.resting_before_sweep, control.resting_before_sweep);
  ASSERT_EQ(storm_a.positions.size(), control.positions.size());
  std::size_t mismatched = 0;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    if (storm_a.positions[s] != control.positions[s] ||
        storm_a.open_counts[s] != control.open_counts[s]) {
      ++mismatched;
      EXPECT_EQ(storm_a.positions[s], control.positions[s]) << "session " << s;
      EXPECT_EQ(storm_a.open_counts[s], control.open_counts[s]) << "session " << s;
      if (mismatched > 8) break;  // don't spam thousands of failures
    }
  }
  EXPECT_EQ(mismatched, 0u);

  // --- determinism ------------------------------------------------------
  EXPECT_EQ(storm_a.fingerprint, storm_b.fingerprint);
  EXPECT_EQ(storm_a.metrics_json, storm_b.metrics_json);
  EXPECT_EQ(storm_a.recovery.picos(), storm_b.recovery.picos());
}

}  // namespace
}  // namespace tsn::drills
