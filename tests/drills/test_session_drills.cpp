// Session-resilience failure drills (§2, §4.2): kill the order-entry
// uplink mid-burst and prove the whole machine — cancel-on-disconnect on
// the exchange, backoff/re-login/replay on the gateway, idempotent
// resubmission for orders the matcher never saw — converges to the same
// economic outcome as a never-disconnected control run, with every step
// visible on the public feed and reproducible byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "rig.hpp"

namespace tsn::drills {
namespace {

std::vector<proto::OrderId> sorted_ids(const std::vector<proto::boe::OrderCancelled>& msgs) {
  std::vector<proto::OrderId> ids;
  for (const auto& msg : msgs) ids.push_back(msg.client_order_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t book_open_orders(DrillRig& rig) {
  return rig.venue().book(proto::Symbol{"AAA"}).open_orders();
}

TEST(SessionDrills, ControlRunStaysConnectedAndFillsTwice) {
  DrillRig rig{session_venue()};
  add_session_parts(rig);
  rig.run({}, session_script());
  EXPECT_EQ(rig.trader(0).gw.stats().disconnects, 0u);
  EXPECT_EQ(rig.venue().stats().cod_sessions, 0u);
  EXPECT_EQ(rig.trader(0).strategy->received<proto::boe::OrderAccepted>().size(), 8u);
  EXPECT_EQ(rig.trader(0).strategy->received<proto::boe::OrderCancelled>().size(), 0u);
  EXPECT_EQ(rig.trader(0).strategy->received<proto::boe::Fill>().size(), 2u);
  // Orders 1 and 8 filled; 2..7 rest untouched at drill end.
  EXPECT_EQ(rig.trader(0).position(), -220);
  EXPECT_EQ(book_open_orders(rig), 6u);
  EXPECT_EQ(rig.feed().adds, 8);
  EXPECT_EQ(rig.feed().deletes, 0);
  EXPECT_EQ(rig.feed().execs, 2);
}

TEST(SessionDrills, UplinkKillMidBurstRecoversViaCodAndReplay) {
  DrillRig control{session_venue()};
  add_session_parts(control);
  control.run({}, session_script());
  DrillRig rig{session_venue()};
  add_session_parts(rig);
  rig.run(uplink_kill(), session_script());

  // The fault fired once, on schedule.
  EXPECT_EQ(rig.injector().stats().faults_fired, 1u);

  // Exchange side: the silent death is caught by the 9ms liveness sweep;
  // cancel-on-disconnect pulls the four resting orders (2..5 — order 1 had
  // already filled) and the deletes are public on the feed.
  EXPECT_EQ(rig.venue().stats().sessions_timed_out, 1u);
  EXPECT_EQ(rig.venue().stats().cod_sessions, 1u);
  EXPECT_EQ(rig.venue().stats().cod_orders_cancelled, 4u);
  EXPECT_EQ(rig.feed().deletes, 4);

  // Gateway side: one disconnect, one backoff re-login that lands after
  // the sweep (so the session is resumed, not taken over), and a replay
  // that carries exactly the four COD cancels the gateway missed.
  EXPECT_EQ(rig.trader(0).gw.stats().disconnects, 1u);
  EXPECT_EQ(rig.trader(0).gw.stats().reconnects_completed, 1u);
  EXPECT_EQ(rig.trader(0).gw.stats().replays_requested, 1u);
  EXPECT_EQ(rig.trader(0).gw.upstream_state(), trading::UpstreamState::kReady);
  EXPECT_EQ(rig.venue().stats().sessions_resumed, 1u);
  EXPECT_EQ(rig.venue().stats().replays_served, 1u);
  EXPECT_EQ(rig.venue().stats().replayed_messages, 4u);

  // Everything in flight had been acked before the kill; the two
  // mid-outage orders queued at the gateway and flushed after re-login —
  // nothing was resubmitted, nothing executed twice.
  EXPECT_EQ(rig.trader(0).gw.stats().orders_marked_unknown, 0u);
  EXPECT_EQ(rig.trader(0).gw.stats().orders_resubmitted, 0u);
  EXPECT_EQ(rig.trader(0).gw.pending_upstream_hwm(), 2u);
  EXPECT_EQ(rig.venue().stats().duplicate_client_ids_rejected, 0u);

  // The strategy saw all eight orders acked exactly once, the four COD
  // cancels, and the same two fills as the control run.
  EXPECT_EQ(rig.trader(0).strategy->received<proto::boe::OrderAccepted>().size(), 8u);
  const auto cancels = rig.trader(0).strategy->received<proto::boe::OrderCancelled>();
  EXPECT_EQ(sorted_ids(cancels), (std::vector<proto::OrderId>{2, 3, 4, 5}));
  const auto fills = rig.trader(0).strategy->received<proto::boe::Fill>();
  ASSERT_EQ(fills.size(), 2u);

  // Economic invariant: fills — hence net position — match the control
  // run exactly. COD only pulls resting orders; it never invents or loses
  // an execution.
  EXPECT_EQ(rig.trader(0).position(), control.trader(0).position());
  EXPECT_EQ(rig.trader(0).position(), -220);
  EXPECT_EQ(rig.feed().execs, control.feed().execs);
  // Only the two post-outage orders rest at drill end (COD took 2..5).
  EXPECT_EQ(book_open_orders(rig), 2u);
}

TEST(SessionDrills, UplinkFlapResumesAndResubmitsUnseenOrders) {
  DrillRig control{session_venue()};
  add_session_parts(control);
  control.run({}, session_script());
  DrillRig rig{session_venue()};
  add_session_parts(rig);
  rig.run(uplink_flap(rig), session_script());

  EXPECT_EQ(rig.injector().stats().faults_fired, 2u);  // down + up

  // The one-way fade means orders 6 and 7 left the gateway but died on
  // the wire; the exchange's FIN (sent when the 9ms sweep killed the
  // session) still reached the gateway, so the disconnect is peer-FIN.
  EXPECT_EQ(rig.trader(0).gw.stats().disconnects, 1u);
  EXPECT_EQ(rig.trader(0).gw.stats().orders_marked_unknown, 2u);
  EXPECT_EQ(rig.venue().stats().cod_sessions, 1u);
  EXPECT_EQ(rig.venue().stats().cod_orders_cancelled, 4u);

  // After re-login the replay shows no trace of 6 and 7, so they are
  // resubmitted under their dedupe keys — each accepted exactly once.
  EXPECT_EQ(rig.trader(0).gw.stats().reconnects_completed, 1u);
  EXPECT_EQ(rig.venue().stats().sessions_resumed, 1u);
  EXPECT_EQ(rig.venue().stats().replayed_messages, 4u);
  EXPECT_EQ(rig.trader(0).gw.stats().orders_resubmitted, 2u);
  EXPECT_EQ(rig.venue().stats().duplicate_client_ids_rejected, 0u);
  EXPECT_EQ(rig.trader(0).gw.upstream_state(), trading::UpstreamState::kReady);

  EXPECT_EQ(rig.trader(0).strategy->received<proto::boe::OrderAccepted>().size(), 8u);
  const auto cancels = rig.trader(0).strategy->received<proto::boe::OrderCancelled>();
  EXPECT_EQ(sorted_ids(cancels), (std::vector<proto::OrderId>{2, 3, 4, 5}));
  EXPECT_EQ(rig.trader(0).position(), control.trader(0).position());
  EXPECT_EQ(book_open_orders(rig), 2u);
}

TEST(SessionDrills, KillDrillIsByteIdenticalAcrossRuns) {
  // The whole recovery — jittered backoff included — is a deterministic
  // function of the seed: two independent runs produce byte-identical
  // session streams and feed bytes, so a drill failure is replayable.
  DrillRig first{session_venue()};
  add_session_parts(first);
  first.run(uplink_kill(), session_script());
  DrillRig second{session_venue()};
  add_session_parts(second);
  second.run(uplink_kill(), session_script());
  EXPECT_EQ(first.trader(0).strategy->raw, second.trader(0).strategy->raw);
  EXPECT_EQ(first.feed().raw, second.feed().raw);
  EXPECT_EQ(first.trader(0).position(), second.trader(0).position());
  EXPECT_EQ(first.trader(0).gw.stats().reconnects_completed,
            second.trader(0).gw.stats().reconnects_completed);
  EXPECT_FALSE(first.trader(0).strategy->raw.empty());
  EXPECT_FALSE(first.feed().raw.empty());
}

}  // namespace
}  // namespace tsn::drills
