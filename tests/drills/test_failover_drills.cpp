// Failover drill suite: crash-primary-mid-burst, partition-then-heal
// split-brain, and crash-during-promotion, each asserting economic parity
// against a never-failed control run of the identical rig and script, plus
// two-run byte-identical telemetry for the crash drill.
//
// Parity here means: the promoted backup's book holds the same (side,
// price, qty) content as the control book (resubmitted orders draw fresh
// exchange ids and lose time priority, so the econ digest — sorted rows —
// is the right equivalence), both strategies end at the same positions, and
// every scripted client order is acked exactly once (nothing lost, nothing
// executed twice).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "rig.hpp"

namespace tsn::drills {
namespace {

struct Parity {
  std::uint64_t econ_digest = 0;
  std::int64_t seller_position = 0;
  std::int64_t buyer_position = 0;
  std::set<proto::OrderId> seller_acked;
  std::set<proto::OrderId> buyer_acked;
  proto::Quantity seller_filled = 0;
  proto::Quantity buyer_filled = 0;
};

Parity collect(DrillRig& rig, exchange::Exchange& book_owner) {
  Parity p;
  p.econ_digest = book_owner.econ_digest();
  Trader& seller = rig.trader(0);
  Trader& buyer = rig.trader(1);
  p.seller_position = seller.position();
  p.buyer_position = buyer.position();
  for (const auto& ack : seller.strategy->received<proto::boe::OrderAccepted>()) {
    // Exactly-once: a client order id acked twice is a double execution in
    // the making; assert uniqueness as we collect.
    EXPECT_TRUE(p.seller_acked.insert(ack.client_order_id).second)
        << "seller order " << ack.client_order_id << " acked twice";
  }
  for (const auto& ack : buyer.strategy->received<proto::boe::OrderAccepted>()) {
    EXPECT_TRUE(p.buyer_acked.insert(ack.client_order_id).second)
        << "buyer order " << ack.client_order_id << " acked twice";
  }
  for (const auto& fill : seller.strategy->received<proto::boe::Fill>()) {
    p.seller_filled += fill.quantity;
  }
  for (const auto& fill : buyer.strategy->received<proto::boe::Fill>()) {
    p.buyer_filled += fill.quantity;
  }
  return p;
}

void expect_parity(const Parity& got, const Parity& control) {
  EXPECT_EQ(got.econ_digest, control.econ_digest);
  EXPECT_EQ(got.seller_position, control.seller_position);
  EXPECT_EQ(got.buyer_position, control.buyer_position);
  EXPECT_EQ(got.seller_acked, control.seller_acked);
  EXPECT_EQ(got.buyer_acked, control.buyer_acked);
  EXPECT_EQ(got.seller_filled, control.seller_filled);
  EXPECT_EQ(got.buyer_filled, control.buyer_filled);
}

Parity run_control() {
  DrillRig rig{failover_venue()};
  add_failover_parts(rig);
  rig.run({}, failover_script());
  // The control pair never faults: the backup follows to the end with a
  // clean digest record and the controller never leaves kFollowing.
  EXPECT_EQ(rig.controller().state(), exchange::FailoverState::kFollowing);
  EXPECT_GT(rig.applier().stats().digests_checked, 0u);
  EXPECT_EQ(rig.applier().stats().digest_mismatches, 0u);
  EXPECT_EQ(rig.backup().state_digest(), rig.venue().state_digest());
  EXPECT_EQ(rig.backup().econ_digest(), rig.venue().econ_digest());
  EXPECT_EQ(rig.feed().gaps, 0u);
  Parity p = collect(rig, rig.venue());
  // Guard against vacuous parity: the control run really traded. All eight
  // seller orders and all three buyer orders acked, crossing volume moved,
  // the feed published.
  EXPECT_EQ(p.seller_acked.size(), 8u);
  EXPECT_EQ(p.buyer_acked.size(), 3u);
  EXPECT_LT(p.seller_position, 0);
  EXPECT_GT(p.buyer_position, 0);
  EXPECT_NE(p.econ_digest, 0u);
  EXPECT_GT(rig.feed().messages, 0u);
  return p;
}

TEST(FailoverDrills, CrashPrimaryMidBurstPromotesWithParity) {
  const Parity control = run_control();

  DrillRig rig{failover_venue()};
  add_failover_parts(rig);
  rig.run(primary_crash(), failover_script());

  // The backup promoted within the detector's budget: suspect_after (2ms)
  // + promote_after (1ms) + promote_replay (0.2ms) + one heartbeat gap and
  // poll-quantization slack.
  ASSERT_EQ(rig.controller().state(), exchange::FailoverState::kActive);
  EXPECT_EQ(rig.controller().stats().promotions, 1u);
  EXPECT_GT(rig.controller().recovery_duration(), sim::Duration::zero());
  EXPECT_LT(rig.controller().recovery_duration(), sim::millis(std::int64_t{5}));

  // Both gateways re-homed onto the backup and drained their queues.
  EXPECT_EQ(rig.trader(0).gw.upstream_endpoint_index(), 1u);
  EXPECT_EQ(rig.trader(1).gw.upstream_endpoint_index(), 1u);
  EXPECT_EQ(rig.trader(0).gw.upstream_state(), trading::UpstreamState::kReady);
  EXPECT_EQ(rig.trader(1).gw.upstream_state(), trading::UpstreamState::kReady);

  // Replication never diverged while the primary lived.
  EXPECT_EQ(rig.applier().stats().digest_mismatches, 0u);
  // The feed stream is one gapless PITCH sequence across the handover.
  EXPECT_EQ(rig.feed().gaps, 0u);

  // Economic parity with the never-failed control: same book content, same
  // positions, every order acked exactly once, same total fills.
  expect_parity(collect(rig, rig.backup()), control);
}

TEST(FailoverDrills, PartitionHealFencesStalePrimary) {
  const Parity control = run_control();

  DrillRig rig{failover_venue()};
  add_failover_parts(rig);
  std::uint64_t feed_at_fence = 0;
  bool primary_fenced_at_12ms = false;
  // The heal lands at 10ms and the applier's next status datagram carries
  // epoch 2; by 12ms the stale primary must have fenced itself.
  rig.probe_at(12000, [&] {
    primary_fenced_at_12ms = rig.venue().fenced();
    feed_at_fence = rig.venue().stats().feed_datagrams;
  });
  rig.run(partition_heal(rig), failover_script());

  // Split-brain resolved: the backup promoted under a bumped epoch, and the
  // healed primary heard it and silenced itself.
  ASSERT_EQ(rig.controller().state(), exchange::FailoverState::kActive);
  EXPECT_GT(rig.applier().epoch(), rig.stream().epoch());
  EXPECT_TRUE(primary_fenced_at_12ms);
  EXPECT_TRUE(rig.stream().fenced());
  EXPECT_TRUE(rig.venue().fenced());
  // The fenced primary emitted nothing after the epoch bump reached it:
  // its feed datagram count is frozen from the fence instant to the end of
  // the drill (orders at 16ms and 20ms only ever reach the backup).
  EXPECT_EQ(rig.venue().stats().feed_datagrams, feed_at_fence);
  EXPECT_EQ(rig.feed().gaps, 0u);

  expect_parity(collect(rig, rig.backup()), control);
}

TEST(FailoverDrills, CrashDuringPromotionStillConverges) {
  const Parity control = run_control();

  DrillRig rig{failover_venue()};
  add_failover_parts(rig);
  exchange::FailoverState state_at_crash = exchange::FailoverState::kFollowing;
  rig.probe_at(7500, [&] { state_at_crash = rig.controller().state(); });
  rig.run(crash_during_promotion(rig), failover_script());

  // The probe shares the crash instant; scheduled before the run it fires
  // ahead of the fault, so it reads the state the crash actually hit.
  EXPECT_EQ(state_at_crash, exchange::FailoverState::kPromoting);
  ASSERT_EQ(rig.controller().state(), exchange::FailoverState::kActive);
  EXPECT_EQ(rig.controller().stats().promotions, 1u);
  EXPECT_EQ(rig.applier().stats().digest_mismatches, 0u);
  EXPECT_EQ(rig.feed().gaps, 0u);

  expect_parity(collect(rig, rig.backup()), control);
}

TEST(FailoverDrills, CrashDrillTelemetryIsByteIdentical) {
  const auto run_once = [] {
    DrillRig rig{failover_venue()};
    add_failover_parts(rig);
    rig.run(primary_crash(), failover_script());
    telemetry::Registry registry;
    rig.register_all(registry);
    return registry.to_json(rig.engine().now()) + rig.injector().log_json();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tsn::drills
