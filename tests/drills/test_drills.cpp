// Scripted end-to-end failure drills (§4): scripted faults against the A
// feed path, with arbitration keeping the downstream normalizer whole.
//
// The acceptance drill is the paper's redundancy argument made executable:
// flap the A line for 50 ms inside a Fig 2c-style burst, and the arbitrated
// consumer sees a gap-free stream — byte-identical to what the exchange
// published — while the identical fault against a single-feed consumer
// tears a hole in its sequence space.
#include <gtest/gtest.h>

#include "rig.hpp"

namespace tsn::drills {
namespace {

TEST(FailureDrills, AFlapDuringBurstIsInvisibleBehindArbitration) {
  DrillRig rig{ab_feed_venue()};
  rig.add_ab_consumer();
  rig.run(a_flap(rig), a_flap_during_burst());

  // The fault really bit: the A line dropped traffic while down.
  EXPECT_GT(rig.a_link().stats().frames_dropped_down, 0u);
  // The B line covered every hole; the arbiter discarded the overlap.
  EXPECT_GT(rig.arb().stats().duplicates, 0u);
  EXPECT_EQ(rig.arb().stats().dual_gaps, 0u);
  EXPECT_EQ(rig.arb().stats().sequences_lost, 0u);

  // The arbitrated consumer never saw a gap, never started recovery.
  EXPECT_EQ(rig.norm().stats().sequence_gaps, 0u);
  EXPECT_EQ(rig.norm().stats().resyncs_started, 0u);
  EXPECT_GT(rig.norm().stats().datagrams_in, 0u);

  // Byte-identical to the published stream captured ahead of the fault.
  ASSERT_EQ(rig.forwarded().size(), rig.published().size());
  for (std::size_t i = 0; i < rig.published().size(); ++i) {
    ASSERT_EQ(rig.forwarded()[i], rig.published()[i]) << "datagram " << i;
  }

  // Satellite: the fault log recorded exactly one down/up pair, in order.
  const auto& log = rig.injector().log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, fault::FaultKind::kLinkDown);
  EXPECT_EQ(log[1].kind, fault::FaultKind::kLinkUp);
  EXPECT_LT(log[0].at, log[1].at);
}

TEST(FailureDrills, SameFlapWithoutArbitrationTearsTheStream) {
  DrillRig rig{ab_feed_venue()};
  rig.add_single_line();
  rig.run(a_flap(rig), a_flap_during_burst());

  EXPECT_GT(rig.a_link().stats().frames_dropped_down, 0u);
  // No second line: the flap is a real gap, and recovery has to run.
  EXPECT_GE(rig.norm().stats().sequence_gaps, 1u);
  EXPECT_GE(rig.norm().stats().resyncs_started, 1u);
}

// Satellite: normalizer gap counters surface as telemetry gauges and match
// the drill's ground truth on both sides of the comparison.
TEST(FailureDrills, GapGaugesMatchDrillGroundTruth) {
  DrillRig arbitrated{ab_feed_venue()};
  arbitrated.add_ab_consumer();
  arbitrated.run(a_flap(arbitrated), a_flap_during_burst());
  telemetry::Registry reg_arbitrated;
  arbitrated.register_all(reg_arbitrated);
  EXPECT_EQ(reg_arbitrated.gauge_value("norm.sequence_gaps"), 0.0);
  EXPECT_EQ(reg_arbitrated.gauge_value("norm.resyncs_started"), 0.0);
  EXPECT_EQ(reg_arbitrated.gauge_value("arb.forwarded"),
            static_cast<double>(arbitrated.arb().stats().forwarded));
  EXPECT_EQ(reg_arbitrated.gauge_value("fault.fired"), 2.0);

  DrillRig single{ab_feed_venue()};
  single.add_single_line();
  single.run(a_flap(single), a_flap_during_burst());
  telemetry::Registry reg_single;
  single.norm().register_metrics(reg_single, "norm");
  EXPECT_GE(reg_single.gauge_value("norm.sequence_gaps"), 1.0);
  EXPECT_EQ(reg_single.gauge_value("norm.sequence_gaps"),
            static_cast<double>(single.norm().stats().sequence_gaps));
  EXPECT_EQ(reg_single.gauge_value("norm.resyncs_started"),
            static_cast<double>(single.norm().stats().resyncs_started));
}

TEST(FailureDrills, RainFadeOnOneLineIsAbsorbed) {
  DrillRig rig{ab_feed_venue()};
  rig.add_ab_consumer();
  rig.run(a_rain_fade(rig), rain_fade_load());
  EXPECT_GT(rig.a_link().stats().frames_dropped_loss, 0u);
  EXPECT_EQ(rig.norm().stats().sequence_gaps, 0u);
  EXPECT_EQ(rig.norm().stats().resyncs_started, 0u);
  // The ramp stepped up, stepped down, and cleared the override.
  EXPECT_GT(rig.injector().log().size(), 2u);
  EXPECT_EQ(rig.a_link().loss_override(), -1.0);
}

TEST(FailureDrills, MrouteEvictionBlackholesOnlyTheEvictedLine) {
  DrillRig rig{ab_feed_venue()};
  rig.add_ab_consumer();
  rig.run(a_mroute_evict(rig), quiet_load(44));
  // With no querier running, nothing re-installs the entry: the A line
  // stays dark for the rest of the run (§3's silent black-hole) ...
  EXPECT_EQ(rig.xsw().mroutes().stats().evictions, 1u);
  EXPECT_GT(rig.xsw().stats().no_group_drops, 0u);
  // ... and the B line carries the session without a single gap.
  EXPECT_EQ(rig.norm().stats().sequence_gaps, 0u);
  EXPECT_EQ(rig.arb().stats().dual_gaps, 0u);
}

TEST(FailureDrills, PortStallDelaysOneLineWithoutCorruptingTheStream) {
  DrillRig rig{ab_feed_venue()};
  rig.add_ab_consumer();
  rig.run(a_port_stall(), quiet_load(45));
  // Frames queued behind the stalled port and released late; by then the
  // B line had delivered, so every late A copy must be discarded as a
  // duplicate — never forwarded, which would rewind the normalizer.
  EXPECT_GT(rig.xsw().stats().frames_stalled, 0u);
  EXPECT_GT(rig.arb().stats().duplicates, 0u);
  EXPECT_EQ(rig.norm().stats().sequence_gaps, 0u);
  EXPECT_EQ(rig.norm().stats().resyncs_started, 0u);
  ASSERT_EQ(rig.forwarded().size(), rig.published().size());
}

}  // namespace
}  // namespace tsn::drills
