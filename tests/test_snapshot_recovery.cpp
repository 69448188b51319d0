// Snapshot-based gap recovery: the exchange's recovery channel plus the
// normalizer's resync logic turn detected feed loss (mroute overflow,
// merged-feed drops, microwave rain fade — all §3/§4 failure modes) into
// a bounded outage instead of permanently corrupt book state.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "trading/normalizer.hpp"

namespace tsn::trading {
namespace {

// Deterministic frame-loss gate: while armed, drops every Nth forwarded
// frame.
class DropGate final : public net::PortedDevice {
 public:
  explicit DropGate(int drop_every) : drop_every_(drop_every) {}

  void attach_port(net::PortId, net::Link& egress) noexcept override { egress_ = &egress; }
  void receive(const net::PacketPtr& packet, net::PortId) override {
    ++seen_;
    if (armed_ && seen_ % drop_every_ == 0) {
      ++dropped_;
      return;
    }
    if (egress_ != nullptr) egress_->transmit(packet);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "dropgate"; }

  void disarm() noexcept { armed_ = false; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  net::Link* egress_ = nullptr;
  int drop_every_;
  bool armed_ = true;
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
};

struct RecoveryRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch;
  Normalizer normalizer;
  DropGate gate{5};  // drop 20% of live/snapshot frames while armed

  static exchange::ExchangeConfig exchange_config() {
    exchange::ExchangeConfig config;
    config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                       proto::price_from_dollars(100)},
                      {proto::Symbol{"BBB"}, proto::InstrumentKind::kEquity,
                       proto::price_from_dollars(50)}};
    config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
    config.snapshot_interval = sim::millis(std::int64_t{5});
    config.feed_mac = net::MacAddr::from_host_id(1);
    config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
    config.order_mac = net::MacAddr::from_host_id(2);
    config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
    return config;
  }

  static NormalizerConfig normalizer_config(bool with_snapshots) {
    NormalizerConfig config;
    config.exchange_id = 1;
    config.feed_groups = {net::Ipv4Addr{239, 100, 0, 0}};
    config.partitioning = std::make_shared<proto::HashPartition>(2);
    if (with_snapshots) {
      config.snapshot_groups = {net::Ipv4Addr{239, 101, 0, 0}};
      config.exchange_partitioning = std::make_shared<proto::HashPartition>(1);
    }
    config.in_mac = net::MacAddr::from_host_id(10);
    config.in_ip = net::Ipv4Addr{10, 0, 1, 1};
    config.out_mac = net::MacAddr::from_host_id(11);
    config.out_ip = net::Ipv4Addr{10, 0, 1, 2};
    return config;
  }

  explicit RecoveryRig(bool with_snapshots)
      : exch(engine, exchange_config()),
        normalizer(engine, normalizer_config(with_snapshots)) {
    // exchange feed -> gate -> normalizer (one-way; joins flow back clean).
    // A 200 us path (e.g. a cross-colo hop) makes the window between the
    // exchange's snapshot tick and its arrival wide enough that live
    // messages land in it — the buffered tail the replay covers.
    net::LinkConfig far;
    far.propagation = sim::micros(std::int64_t{200});
    net::Link& to_gate = fabric.make_link("feed->gate", far, gate, 0);
    exch.feed_nic().attach_port(0, to_gate);
    net::Link& to_norm = fabric.make_link("gate->norm", far, normalizer.in_nic(), 0);
    gate.attach_port(0, to_norm);
    net::Link& back =
        fabric.make_link("norm->feed", net::LinkConfig{}, exch.feed_nic(), 0);
    normalizer.in_nic().attach_port(0, back);
    normalizer.join_feeds();
  }

  void run_market(std::int64_t ms, std::uint64_t seed) {
    exchange::ActivityConfig activity;
    activity.events_per_second = 30'000;
    exchange::MarketActivityDriver driver{exch, activity, seed};
    driver.run_until(engine.now() + sim::millis(ms));
    engine.run_until(engine.now() + sim::millis(ms));
  }
};

TEST(SnapshotRecovery, ResyncRestoresConsistency) {
  RecoveryRig rig{/*with_snapshots=*/true};
  rig.exch.start_snapshots();
  rig.run_market(100, 21);
  EXPECT_GT(rig.gate.dropped(), 10u);
  EXPECT_GT(rig.normalizer.stats().sequence_gaps, 0u);
  EXPECT_GT(rig.normalizer.stats().resyncs_started, 0u);
  EXPECT_GT(rig.normalizer.stats().resyncs_completed, 0u);
  EXPECT_GT(rig.normalizer.stats().snapshot_orders_applied, 0u);

  // Heal the path, let the market settle, and give recovery a few cycles.
  rig.gate.disarm();
  rig.run_market(30, 22);
  rig.engine.run_until(rig.engine.now() + sim::millis(std::int64_t{30}));

  // The normalizer's reconstructed BBO matches the exchange's books.
  for (const auto& spec : rig.exch.symbols()) {
    const auto truth = rig.exch.book(spec.symbol).best();
    const auto reconstructed = rig.normalizer.best_of(spec.symbol);
    if (!truth.bid_price && !truth.ask_price) continue;
    ASSERT_TRUE(reconstructed.has_value()) << spec.symbol.str();
    EXPECT_EQ(reconstructed->bid, truth.bid_price.value_or(0)) << spec.symbol.str();
    EXPECT_EQ(reconstructed->ask, truth.ask_price.value_or(0)) << spec.symbol.str();
  }
}

TEST(SnapshotRecovery, WithoutSnapshotsStateStaysCorrupt) {
  RecoveryRig rig{/*with_snapshots=*/false};
  rig.run_market(100, 21);
  EXPECT_GT(rig.normalizer.stats().sequence_gaps, 0u);
  EXPECT_EQ(rig.normalizer.stats().resyncs_started, 0u);
  // Lost adds leave later executes/deletes unresolvable.
  EXPECT_GT(rig.normalizer.stats().unknown_orders, 0u);
}

// On a single FIFO path the live tail always queues behind the snapshot
// cycle, so replay never fires (ResyncRestoresConsistency covers that).
// Replay matters when snapshots arrive over a separate path and interleave
// with live traffic — emulated here by hand-sequencing datagrams straight
// into the normalizer.
struct HandSequencedRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  Normalizer normalizer{engine, RecoveryRig::normalizer_config(true)};
  net::Nic live_nic{engine, "live", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic snap_nic{engine, "snap", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};

  HandSequencedRig() {
    // Two independent one-way paths into the normalizer's NIC.
    net::Link& live_link =
        fabric.make_link("live->norm", net::LinkConfig{}, normalizer.in_nic(), 0);
    live_nic.attach_port(0, live_link);
    net::Link& snap_link =
        fabric.make_link("snap->norm", net::LinkConfig{}, normalizer.in_nic(), 0);
    snap_nic.attach_port(0, snap_link);
    normalizer.join_feeds();
    engine.run();
  }

  // Sends one live datagram whose first message carries `sequence`
  // (`messages` must fit in one datagram).
  void live(std::uint32_t sequence, const std::vector<proto::pitch::Message>& messages) {
    std::vector<std::byte> payload;
    proto::pitch::FrameBuilder builder{
        0, 1458, [&payload](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
          payload = std::move(p);
        }};
    for (const auto& message : messages) builder.append(message);
    builder.flush();
    // FrameBuilder numbers from 1; stamp the target sequence into the
    // unit header (bytes 4..7, little-endian).
    for (std::size_t i = 0; i < 4; ++i) {
      payload[4 + i] = static_cast<std::byte>((sequence >> (8 * i)) & 0xff);
    }
    live_nic.send_frame(net::build_multicast_frame(live_nic.mac(), live_nic.ip(),
                                                   net::Ipv4Addr{239, 100, 0, 0}, 30001,
                                                   payload));
    engine.run();
  }

  // Builds one snapshot cycle for unit 0 — begin, one add per (id, quantity),
  // end — packed into datagrams of at most `max_payload` bytes.
  static std::vector<std::vector<std::byte>> snapshot_cycle(
      std::uint32_t resume_sequence,
      const std::vector<std::pair<proto::OrderId, proto::Quantity>>& orders,
      std::size_t max_payload = 1458) {
    std::vector<std::vector<std::byte>> payloads;
    proto::pitch::FrameBuilder builder{
        0, max_payload, [&payloads](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
          payloads.push_back(std::move(p));
        }};
    builder.append(proto::pitch::Message{proto::pitch::SnapshotBegin{0, resume_sequence}});
    for (const auto& [id, quantity] : orders) builder.append(add(id, quantity));
    builder.append(proto::pitch::Message{
        proto::pitch::SnapshotEnd{0, static_cast<std::uint32_t>(orders.size())}});
    builder.flush();
    return payloads;
  }

  void snapshot(const std::vector<std::byte>& payload) {
    snap_nic.send_frame(net::build_multicast_frame(snap_nic.mac(), snap_nic.ip(),
                                                   net::Ipv4Addr{239, 101, 0, 0}, 30002,
                                                   payload));
    engine.run();
  }

  static proto::pitch::Message add(proto::OrderId id, proto::Quantity quantity = 100) {
    proto::pitch::AddOrder add;
    add.order_id = id;
    add.symbol = proto::Symbol{"AAA"};
    add.price = proto::price_from_dollars(10);  // long form: 34 bytes
    add.quantity = quantity;
    return proto::pitch::Message{add};
  }
  static proto::pitch::Message del(proto::OrderId id) {
    return proto::pitch::Message{proto::pitch::DeleteOrder{0, id}};
  }
};

TEST(SnapshotRecovery, BufferedLiveTailIsReplayed) {
  HandSequencedRig rig;
  // seq 1, 2 arrive; seq 3 is lost; seq 4, 5 arrive during the outage.
  rig.live(1, {HandSequencedRig::add(101)});
  rig.live(2, {HandSequencedRig::add(102)});
  // (seq 3, an add of order 103, never arrives)
  rig.live(4, {HandSequencedRig::add(104)});  // gap detected here; buffered
  rig.live(5, {HandSequencedRig::del(102)});  // delete of order 102; buffered
  EXPECT_EQ(rig.normalizer.stats().sequence_gaps, 1u);
  EXPECT_EQ(rig.normalizer.stats().messages_buffered_in_recovery, 2u);

  // Snapshot covering state as of seq 4 (orders 101, 102, 103 resting).
  for (const auto& payload :
       HandSequencedRig::snapshot_cycle(4, {{101, 100}, {102, 100}, {103, 100}})) {
    rig.snapshot(payload);
  }

  const auto& stats = rig.normalizer.stats();
  EXPECT_EQ(stats.resyncs_completed, 1u);
  EXPECT_EQ(stats.snapshot_orders_applied, 3u);
  // The buffered tail (seq 4 add of 104, seq 5 delete of 102) replayed.
  EXPECT_EQ(stats.messages_replayed_after_recovery, 2u);
  // Final state: orders 101, 103, 104 tracked (102 deleted by the replay).
  EXPECT_EQ(rig.normalizer.tracked_orders(), 3u);
}

// A lost snapshot datagram leaves the rebuild short of the cycle's
// order_count: that cycle must not complete, and the next whole one must.
TEST(SnapshotRecovery, CycleMissingADatagramIsDroppedUntilAWholeOne) {
  HandSequencedRig rig;
  rig.live(1, {HandSequencedRig::add(101)});
  rig.live(2, {HandSequencedRig::add(102)});
  // (seq 3, an add of order 103, never arrives)
  rig.live(4, {HandSequencedRig::add(104)});
  rig.live(5, {HandSequencedRig::del(101)});

  // 49-byte datagrams: [begin + add 101] [add 102] [add 103 + end].
  const auto cycle =
      HandSequencedRig::snapshot_cycle(4, {{101, 100}, {102, 100}, {103, 100}}, 49);
  ASSERT_EQ(cycle.size(), 3u);
  rig.snapshot(cycle[0]);
  rig.snapshot(cycle[2]);  // the middle datagram (order 102) never arrives
  EXPECT_EQ(rig.normalizer.stats().snapshot_orders_applied, 2u);
  EXPECT_EQ(rig.normalizer.stats().resyncs_completed, 0u);
  EXPECT_EQ(rig.normalizer.stats().messages_replayed_after_recovery, 0u);

  for (const auto& payload : cycle) rig.snapshot(payload);
  const auto& stats = rig.normalizer.stats();
  EXPECT_EQ(stats.resyncs_completed, 1u);
  EXPECT_EQ(stats.snapshot_orders_applied, 5u);
  EXPECT_EQ(stats.messages_replayed_after_recovery, 2u);
  // 102 and 103 from the snapshot, 104 from the replay; 101 deleted.
  EXPECT_EQ(rig.normalizer.tracked_orders(), 3u);
}

// A second gap restarts the buffered tail after the resume point of the
// next snapshot: the messages between them are gone, so that snapshot
// cannot complete the resync. A later snapshot whose resume point the
// tail reaches does.
TEST(SnapshotRecovery, TailStartingPastTheResumePointWaitsForALaterSnapshot) {
  HandSequencedRig rig;
  rig.live(1, {HandSequencedRig::add(101)});
  rig.live(2, {HandSequencedRig::add(102)});
  // (seq 3, an add of order 103, never arrives)
  rig.live(4, {HandSequencedRig::add(104)});  // first gap: recovery starts
  // (seq 5, an add of order 105, never arrives)
  rig.live(6, {HandSequencedRig::del(101)});  // second gap: the tail restarts at 6
  EXPECT_EQ(rig.normalizer.stats().sequence_gaps, 2u);
  EXPECT_EQ(rig.normalizer.stats().resyncs_started, 1u);

  // State as of seq 3, resuming at 4: the tail no longer holds seq 4 or 5.
  for (const auto& payload :
       HandSequencedRig::snapshot_cycle(4, {{101, 100}, {102, 100}, {103, 100}})) {
    rig.snapshot(payload);
  }
  EXPECT_EQ(rig.normalizer.stats().resyncs_completed, 0u);
  EXPECT_EQ(rig.normalizer.stats().messages_replayed_after_recovery, 0u);

  // State as of seq 5, resuming at 6.
  for (const auto& payload : HandSequencedRig::snapshot_cycle(
           6, {{101, 100}, {102, 100}, {103, 100}, {104, 100}, {105, 100}})) {
    rig.snapshot(payload);
  }
  const auto& stats = rig.normalizer.stats();
  EXPECT_EQ(stats.resyncs_completed, 1u);
  EXPECT_EQ(stats.messages_replayed_after_recovery, 1u);
  // 102..105 from the snapshot; the replayed seq 6 deleted 101.
  EXPECT_EQ(rig.normalizer.tracked_orders(), 4u);
}

// One buffered datagram whose rows straddle the resume point: replay starts
// at the first row at or past it, not at the datagram's start.
TEST(SnapshotRecovery, ReplayStartsMidDatagramAtTheResumePoint) {
  HandSequencedRig rig;
  rig.live(1, {HandSequencedRig::add(101)});
  // (seq 2, an add of order 102, never arrives)
  // seq 3 executes half of 102, seq 4 adds 104, seq 5 deletes 101.
  rig.live(3, {proto::pitch::Message{proto::pitch::OrderExecuted{0, 102, 50, 1}},
               HandSequencedRig::add(104), HandSequencedRig::del(101)});
  EXPECT_EQ(rig.normalizer.stats().messages_buffered_in_recovery, 3u);

  // State as of seq 3 (102 already down to 50), resuming at 4.
  for (const auto& payload : HandSequencedRig::snapshot_cycle(4, {{101, 100}, {102, 50}})) {
    rig.snapshot(payload);
  }
  const auto& stats = rig.normalizer.stats();
  EXPECT_EQ(stats.resyncs_completed, 1u);
  // Only seq 4 and 5 replay. Replaying seq 3 too would execute 102's last
  // 50 and drop it from the book.
  EXPECT_EQ(stats.messages_replayed_after_recovery, 2u);
  EXPECT_EQ(rig.normalizer.tracked_orders(), 2u);  // 102 and 104
  EXPECT_EQ(stats.unknown_orders, 0u);
}

// The live path can lag the snapshot path: a datagram below the resume
// point may arrive after the resync completed. The snapshot already holds
// its rows, so applying them again would double the order's depth.
TEST(SnapshotRecovery, LateLiveRowsBelowTheResumePointAreDropped) {
  HandSequencedRig rig;
  rig.live(1, {HandSequencedRig::add(101)});
  rig.live(2, {HandSequencedRig::add(102)});
  // (seq 3, an add of order 103, never arrives)
  rig.live(4, {HandSequencedRig::add(104)});  // gap detected here; buffered

  // State as of seq 5, resuming at 6: the snapshot path is ahead of live.
  for (const auto& payload : HandSequencedRig::snapshot_cycle(
           6, {{101, 100}, {102, 100}, {103, 100}, {104, 100}, {105, 100}})) {
    rig.snapshot(payload);
  }
  ASSERT_EQ(rig.normalizer.stats().resyncs_completed, 1u);
  ASSERT_EQ(rig.normalizer.stats().messages_replayed_after_recovery, 0u);

  // Seq 5 reaches the live path only now.
  const std::uint64_t updates_before = rig.normalizer.stats().updates_out;
  rig.live(5, {HandSequencedRig::add(105)});
  EXPECT_EQ(rig.normalizer.stats().updates_out, updates_before)
      << "a late row below the resume point was republished";
  EXPECT_EQ(rig.normalizer.stats().sequence_gaps, 1u);

  // Rows at and past the resume point still apply.
  for (proto::OrderId id = 101; id <= 105; ++id) {
    rig.live(static_cast<std::uint32_t>(id - 95), {HandSequencedRig::del(id)});
  }
  EXPECT_EQ(rig.normalizer.tracked_orders(), 0u);
  EXPECT_EQ(rig.normalizer.stats().unknown_orders, 0u);
  const auto bbo = rig.normalizer.best_of(proto::Symbol{"AAA"});
  ASSERT_TRUE(bbo.has_value());
  EXPECT_EQ(bbo->bid, 0);
}

// The recovery buffer holds at most 100,000 messages. A datagram that
// would overflow it restarts the tail, as a gap does, so a snapshot from
// before the restart can no longer complete the resync.
TEST(SnapshotRecovery, FullRecoveryBufferRestartsTheTail) {
  HandSequencedRig rig;
  rig.live(1, {HandSequencedRig::add(101)});
  // (seq 2 never arrives)
  const std::vector<proto::pitch::Message> ticks(240,
                                                 proto::pitch::Message{proto::pitch::Time{34'200}});
  for (std::uint32_t i = 0; i < 417; ++i) rig.live(3 + i * 240, ticks);
  EXPECT_EQ(rig.normalizer.stats().messages_buffered_in_recovery, 417u * 240u);
  // 416 datagrams fill 99,840 slots; the 417th restarts the tail.
  const std::uint32_t restarted_at = 3 + 416 * 240;

  for (const auto& payload : HandSequencedRig::snapshot_cycle(3, {{101, 100}})) {
    rig.snapshot(payload);
  }
  EXPECT_EQ(rig.normalizer.stats().resyncs_completed, 0u);

  for (const auto& payload : HandSequencedRig::snapshot_cycle(restarted_at, {{101, 100}})) {
    rig.snapshot(payload);
  }
  const auto& stats = rig.normalizer.stats();
  EXPECT_EQ(stats.resyncs_completed, 1u);
  EXPECT_EQ(stats.messages_replayed_after_recovery, 240u);
  EXPECT_EQ(rig.normalizer.tracked_orders(), 1u);
}

TEST(SnapshotRecovery, RequiresExchangePartitioning) {
  sim::Engine engine;
  auto config = RecoveryRig::normalizer_config(true);
  config.exchange_partitioning = nullptr;
  EXPECT_THROW(Normalizer(engine, std::move(config)), std::invalid_argument);
}

TEST(SnapshotRecovery, ExchangePublishesSnapshotsPeriodically) {
  sim::Engine engine;
  exchange::Exchange exch{engine, RecoveryRig::exchange_config()};
  exch.book(proto::Symbol{"AAA"})
      .submit({exch.next_order_id(), proto::Side::kBuy, proto::price_from_dollars(99), 100});
  exch.start_snapshots();
  engine.run_until(engine.now() + sim::millis(std::int64_t{26}));
  // 5 ms interval, one snapshot per unit per tick.
  EXPECT_EQ(exch.snapshots_published(), 5u);
  auto start_with_zero_interval = [] {
    sim::Engine e2;
    auto config = RecoveryRig::exchange_config();
    config.snapshot_interval = sim::Duration::zero();
    exchange::Exchange x{e2, std::move(config)};
    x.start_snapshots();
  };
  EXPECT_THROW(start_with_zero_interval(), std::invalid_argument);
}

}  // namespace
}  // namespace tsn::trading
