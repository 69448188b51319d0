// Replay determinism: a failure drill is only a regression tool if two
// runs of the same scenario are bit-for-bit identical. This pins the full
// telemetry JSON export and the fault log of the acceptance drill across
// two independent runs with the same seed — any nondeterminism anywhere in
// the faulted pipeline (RNG sharing, map iteration order, time arithmetic)
// breaks the byte comparison.
//
// The log is the plan: a drill's fault log, fed to a fresh rig as its plan,
// reproduces the run, so a failing run's log is its own reproducer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "rig.hpp"

namespace tsn::drills {
namespace {

struct DrillOutcome {
  std::string metrics_json;
  std::string fault_log_json;
  std::size_t forwarded = 0;
  std::size_t published = 0;
};

DrillOutcome run_acceptance_drill() {
  DrillRig rig{ab_feed_venue()};
  rig.add_ab_consumer();
  rig.run(a_flap(rig), a_flap_during_burst());
  telemetry::Registry registry;
  rig.register_all(registry);
  DrillOutcome outcome;
  outcome.metrics_json = registry.to_json(rig.engine().now());
  outcome.fault_log_json = rig.injector().log_json();
  outcome.forwarded = rig.forwarded().size();
  outcome.published = rig.published().size();
  return outcome;
}

TEST(FaultReplay, SameSeedSameDrillIsByteIdentical) {
  const DrillOutcome first = run_acceptance_drill();
  const DrillOutcome second = run_acceptance_drill();

  EXPECT_GT(first.published, 0u);
  EXPECT_EQ(first.forwarded, second.forwarded);
  EXPECT_EQ(first.published, second.published);
  EXPECT_EQ(first.fault_log_json, second.fault_log_json);
  // The whole telemetry surface — exchange, switch, arbiter, normalizer,
  // injector — byte for byte.
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

// Schema check: every FaultKind value — including the failover additions
// process_crash and link_partition — must round-trip through the JSON
// export under the exact name fault_kind_name spells. A kind that fires but
// exports as "?" (or not at all) would silently weaken every byte-identity
// comparison built on the log.
TEST(FaultReplay, EveryFaultKindRoundTripsThroughLogJson) {
  sim::Engine engine;
  net::Link link_a{engine, "bridge-ab", net::LinkConfig{}};
  net::Link link_b{engine, "bridge-ba", net::LinkConfig{}};
  l2::CommoditySwitch tor{engine, "tor", l2::CommoditySwitchConfig{}};
  fault::FaultInjector injector{engine};
  injector.register_link(link_a);
  injector.register_link(link_b);
  injector.register_switch(tor);
  injector.register_session("sess", [] {});
  injector.register_storm("storm", [](std::uint32_t count) { return count; });
  injector.register_process("proc", [] {});

  using fault::FaultKind;
  const Plan plan = {
      {at_us(100), FaultKind::kLinkDown, "bridge-ab", 0.0},
      {at_us(200), FaultKind::kLinkUp, "bridge-ab", 0.0},
      {at_us(300), FaultKind::kLossSet, "bridge-ab", 0.25},
      {at_us(400), FaultKind::kLossClear, "bridge-ab", 0.0},
      {at_us(500), FaultKind::kPortStall, "tor:port0", 10'000.0},
      {at_us(600), FaultKind::kMrouteEvict, "tor:225.0.0.1", 0.0},
      {at_us(700), FaultKind::kSessionKill, "sess", 0.0},
      {at_us(800), FaultKind::kSessionStorm, "storm", 3.0},
      {at_us(900), FaultKind::kProcessCrash, "proc", 0.0},
      {at_us(1000), FaultKind::kLinkPartition, "bridge-ab|bridge-ba", 1.0},
      {at_us(1100), FaultKind::kLinkPartition, "bridge-ab|bridge-ba", 0.0},
  };
  for (const fault::FaultEvent& event : plan) injector.schedule(event);
  engine.run_until(at_us(2000));

  // The log is the plan, field by field (the storm callback drops all it
  // is asked for, so even its logged value matches).
  const auto& log = injector.log();
  ASSERT_EQ(log.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(log[i].at, plan[i].at) << "event " << i;
    EXPECT_EQ(log[i].kind, plan[i].kind) << "event " << i;
    EXPECT_EQ(log[i].target, plan[i].target) << "event " << i;
    EXPECT_EQ(log[i].value, plan[i].value) << "event " << i;
  }

  const std::string json = injector.log_json();
  for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
    const auto name = fault::fault_kind_name(static_cast<fault::FaultKind>(k));
    EXPECT_NE(name, "?") << "FaultKind " << k << " has no export name";
    const std::string needle = "\"kind\":\"" + std::string{name} + "\"";
    EXPECT_NE(json.find(needle), std::string::npos)
        << "kind " << name << " missing from fault log: " << json;
  }
  // The export never leaks an unnamed kind.
  EXPECT_EQ(json.find("\"kind\":\"?\""), std::string::npos);
  // Partition windows read directly off the log: one combined target with
  // value 1 (partition) then 0 (heal).
  EXPECT_NE(json.find("\"target\":\"bridge-ab|bridge-ba\",\"value\":1"), std::string::npos);
  EXPECT_NE(json.find("\"target\":\"bridge-ab|bridge-ba\",\"value\":0"), std::string::npos);
}

// A plan that names nothing registered, or the wrong type of target, or
// breaks a target's grammar fails when scheduled, not silently at fire time.
TEST(FaultReplay, ScheduleRejectsTargetsItCannotResolve) {
  sim::Engine engine;
  net::Link link{engine, "bridge-ab", net::LinkConfig{}};
  l2::CommoditySwitch tor{engine, "tor", l2::CommoditySwitchConfig{}};
  fault::FaultInjector injector{engine};
  injector.register_link(link);
  injector.register_switch(tor);
  injector.register_session("sess", [] {});

  using fault::FaultKind;
  const Plan bad = {
      {at_us(1), FaultKind::kLinkDown, "no-such-link", 0.0},
      {at_us(1), FaultKind::kSessionKill, "bridge-ab", 0.0},
      {at_us(1), FaultKind::kProcessCrash, "sess", 0.0},
      {at_us(1), FaultKind::kSessionStorm, "sess", 1.0},
      {at_us(1), FaultKind::kPortStall, "bridge-ab:port0", 10.0},
      {at_us(1), FaultKind::kPortStall, "tor:port", 10.0},
      {at_us(1), FaultKind::kPortStall, "tor:1", 10.0},
      {at_us(1), FaultKind::kMrouteEvict, "tor:225.0.0", 0.0},
      {at_us(1), FaultKind::kLinkPartition, "bridge-ab", 1.0},
  };
  for (const fault::FaultEvent& event : bad) {
    EXPECT_THROW(injector.schedule(event), std::invalid_argument) << event.target;
  }
  EXPECT_EQ(injector.stats().faults_scheduled, 0u);
}

TEST(FaultReplay, DifferentSeedsDiverge) {
  const DrillOutcome baseline = run_acceptance_drill();

  DrillRig rig{ab_feed_venue()};
  rig.add_ab_consumer();
  DrillScenario scenario = a_flap_during_burst();
  scenario.seed = 42;
  rig.run(a_flap(rig), scenario);
  telemetry::Registry registry;
  rig.register_all(registry);
  // A sanity guard on the comparison above: the export is sensitive to the
  // market stream, not constant.
  EXPECT_NE(baseline.metrics_json, registry.to_json(rig.engine().now()));
}

// --- the log is the plan -----------------------------------------------------

std::string metrics_json(DrillRig& rig) {
  telemetry::Registry registry;
  rig.register_all(registry);
  return registry.to_json(rig.engine().now());
}

// The replay fired every fault the first run did, and the first run's
// telemetry reproduces byte for byte.
void expect_same_run(DrillRig& first, DrillRig& replay) {
  EXPECT_FALSE(first.injector().log().empty());
  EXPECT_EQ(first.injector().log_json(), replay.injector().log_json());
  EXPECT_EQ(metrics_json(first), metrics_json(replay));
}

void expect_ab_log_replays(const DrillScenario& load, Plan (*plan)(DrillRig&)) {
  DrillRig first{ab_feed_venue()};
  first.add_ab_consumer();
  first.run(plan(first), load);
  DrillRig replay{ab_feed_venue()};
  replay.add_ab_consumer();
  replay.run(first.injector().log(), load);
  expect_same_run(first, replay);
}

// The session drills register no telemetry of their own; their
// byte-identity surface is the strategy's session stream and the feed.
void expect_session_log_replays(Plan (*plan)(DrillRig&)) {
  DrillRig first{session_venue()};
  add_session_parts(first);
  first.run(plan(first), session_script());
  DrillRig replay{session_venue()};
  add_session_parts(replay);
  replay.run(first.injector().log(), session_script());
  EXPECT_FALSE(first.injector().log().empty());
  EXPECT_EQ(first.injector().log_json(), replay.injector().log_json());
  EXPECT_EQ(first.trader(0).strategy->raw, replay.trader(0).strategy->raw);
  EXPECT_EQ(first.feed().raw, replay.feed().raw);
}

void expect_failover_log_replays(Plan (*plan)(DrillRig&)) {
  DrillRig first{failover_venue()};
  add_failover_parts(first);
  first.run(plan(first), failover_script());
  DrillRig replay{failover_venue()};
  add_failover_parts(replay);
  replay.run(first.injector().log(), failover_script());
  expect_same_run(first, replay);
}

TEST(FaultReplay, AFlapLogReplaysAsPlan) {
  expect_ab_log_replays(a_flap_during_burst(), a_flap);
}

TEST(FaultReplay, RainFadeLogReplaysAsPlan) {
  expect_ab_log_replays(rain_fade_load(), a_rain_fade);
}

TEST(FaultReplay, PortStallLogReplaysAsPlan) {
  expect_ab_log_replays(quiet_load(45), [](DrillRig&) { return a_port_stall(); });
}

TEST(FaultReplay, MrouteEvictionLogReplaysAsPlan) {
  expect_ab_log_replays(quiet_load(44), a_mroute_evict);
}

TEST(FaultReplay, UplinkKillLogReplaysAsPlan) {
  expect_session_log_replays([](DrillRig&) { return uplink_kill(); });
}

TEST(FaultReplay, UplinkFlapLogReplaysAsPlan) {
  expect_session_log_replays(uplink_flap);
}

TEST(FaultReplay, PrimaryCrashLogReplaysAsPlan) {
  expect_failover_log_replays([](DrillRig&) { return primary_crash(); });
}

TEST(FaultReplay, PartitionHealLogReplaysAsPlan) {
  expect_failover_log_replays(partition_heal);
}

TEST(FaultReplay, CrashDuringPromotionLogReplaysAsPlan) {
  expect_failover_log_replays(crash_during_promotion);
}

}  // namespace
}  // namespace tsn::drills
