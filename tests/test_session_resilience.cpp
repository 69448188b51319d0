// Order-entry session resilience (§2): journal + exactly-once replay,
// client-order-id dedupe, cancel-on-disconnect, session resume/takeover on
// the exchange side; reconnect backoff, in-flight reconciliation, and the
// bounded pending queue on the gateway side.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "net/stack.hpp"
#include "trading/gateway.hpp"

namespace tsn {
namespace {

using proto::boe::Message;
using proto::boe::RejectReason;

exchange::ExchangeConfig exchange_config(bool cancel_on_disconnect) {
  exchange::ExchangeConfig config;
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.cancel_on_disconnect = cancel_on_disconnect;
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  return config;
}

// A raw TCP client speaking BOE straight at the exchange, able to open
// several connections (reconnect legs) over its one NIC.
struct ExchangeRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch;
  net::Nic client_nic{engine, "client", net::MacAddr::from_host_id(10),
                      net::Ipv4Addr{10, 0, 0, 10}};
  net::NetStack client{client_nic};
  std::uint32_t seq = 1;

  struct Conn {
    net::TcpEndpoint* ep = nullptr;
    proto::boe::StreamParser parser;
    std::vector<std::byte> raw;  // every byte received, in order
    std::vector<std::pair<std::uint32_t, Message>> msgs;
  };
  std::vector<std::unique_ptr<Conn>> conns;

  explicit ExchangeRig(bool cancel_on_disconnect = false)
      : exch(engine, exchange_config(cancel_on_disconnect)) {
    fabric.connect(exch.order_nic(), 0, client_nic, 0, net::LinkConfig{});
  }

  Conn& open() {
    auto conn = std::make_unique<Conn>();
    Conn* raw_conn = conn.get();
    conn->ep = &client.connect_tcp(exch.order_nic().mac(), exch.order_nic().ip(),
                                   exch.config().order_port, 0);
    conn->ep->set_data_handler([raw_conn](std::span<const std::byte> bytes, sim::Time) {
      raw_conn->raw.insert(raw_conn->raw.end(), bytes.begin(), bytes.end());
      raw_conn->parser.feed(bytes);
      while (auto decoded = raw_conn->parser.next()) {
        raw_conn->msgs.emplace_back(decoded->seq, decoded->message);
      }
    });
    conns.push_back(std::move(conn));
    return *raw_conn;
  }

  void send(Conn& conn, const Message& message) {
    conn.ep->send(proto::boe::encode(message, seq++));
  }

  void run(std::int64_t ms = 5) { engine.run_until(engine.now() + sim::millis(ms)); }

  // Sell orders above the open rest untouched (no background liquidity).
  proto::boe::NewOrder resting_sell(proto::OrderId id, proto::Quantity qty, double dollars) {
    return {id, proto::Side::kSell, qty, proto::Symbol{"AAA"},
            proto::price_from_dollars(dollars), proto::boe::TimeInForce::kDay};
  }

  template <typename T>
  std::vector<T> received(const Conn& conn) const {
    std::vector<T> out;
    for (const auto& [msg_seq, msg] : conn.msgs) {
      if (const auto* typed = std::get_if<T>(&msg)) out.push_back(*typed);
    }
    return out;
  }
};

TEST(SessionResilience, ReplayIsByteIdenticalToTheLiveStream) {
  ExchangeRig rig;
  auto& first = rig.open();
  rig.send(first, proto::boe::LoginRequest{7, 0xfeed});
  rig.run();
  rig.send(first, rig.resting_sell(1, 100, 101.0));
  rig.send(first, rig.resting_sell(2, 50, 102.0));
  rig.run();
  rig.send(first, proto::boe::CancelOrder{1});
  rig.run();
  // Live sequenced stream: OrderAccepted(1), OrderAccepted(2),
  // OrderCancelled(1) at seqs 1..3, preceded by the unsequenced login ack.
  ASSERT_EQ(first.msgs.size(), 4u);
  const std::size_t login_ack_size =
      proto::boe::encoded_size(Message{proto::boe::LoginAccepted{}});
  const std::vector<std::byte> live_tail(first.raw.begin() +
                                             static_cast<std::ptrdiff_t>(login_ack_size),
                                         first.raw.end());

  // Same credentials on a fresh connection take the session over; a replay
  // from zero must reproduce the journal verbatim.
  auto& second = rig.open();
  rig.send(second, proto::boe::LoginRequest{7, 0xfeed});
  rig.run();
  rig.send(second, proto::boe::ReplayRequest{0});
  rig.run();
  EXPECT_EQ(rig.exch.stats().sessions_taken_over, 1u);
  EXPECT_EQ(rig.exch.stats().replays_served, 1u);
  EXPECT_EQ(rig.exch.stats().replayed_messages, 3u);
  const std::size_t reset_size =
      proto::boe::encoded_size(Message{proto::boe::SequenceReset{}});
  ASSERT_GE(second.raw.size(), login_ack_size + live_tail.size() + reset_size);
  const std::vector<std::byte> replay_tail(
      second.raw.begin() + static_cast<std::ptrdiff_t>(login_ack_size),
      second.raw.end() - static_cast<std::ptrdiff_t>(reset_size));
  EXPECT_EQ(replay_tail, live_tail);
  // The replay closes with the next sequence the live stream would use.
  const auto resets = rig.received<proto::boe::SequenceReset>(second);
  ASSERT_EQ(resets.size(), 1u);
  EXPECT_EQ(resets[0].next_seq, 4u);

  // A second replay serves the identical bytes again: replay is a pure
  // function of the journal, not a destructive pop.
  second.raw.clear();
  rig.send(second, proto::boe::ReplayRequest{0});
  rig.run();
  EXPECT_EQ(rig.exch.stats().replays_served, 2u);
  const std::vector<std::byte> replay_again(
      second.raw.begin(), second.raw.end() - static_cast<std::ptrdiff_t>(reset_size));
  EXPECT_EQ(replay_again, live_tail);
}

TEST(SessionResilience, ReplayFromLastSeenSendsOnlyTheMissedTail) {
  ExchangeRig rig;
  auto& first = rig.open();
  rig.send(first, proto::boe::LoginRequest{3, 0xfeed});
  rig.run();
  rig.send(first, rig.resting_sell(1, 100, 101.0));
  rig.run();
  first.ep->close();  // graceful death; the session survives
  rig.run();

  auto& second = rig.open();
  rig.send(second, proto::boe::LoginRequest{3, 0xfeed});
  rig.run();
  EXPECT_EQ(rig.exch.stats().sessions_resumed, 1u);
  rig.send(second, proto::boe::ReplayRequest{1});  // we saw seq 1 already
  rig.run();
  EXPECT_EQ(rig.exch.stats().replays_served, 1u);
  EXPECT_EQ(rig.exch.stats().replayed_messages, 0u);
  const auto resets = rig.received<proto::boe::SequenceReset>(second);
  ASSERT_EQ(resets.size(), 1u);
  EXPECT_EQ(resets[0].next_seq, 2u);
}

TEST(SessionResilience, DuplicateClientOrderIdNeverExecutesTwice) {
  ExchangeRig rig;
  auto& conn = rig.open();
  rig.send(conn, proto::boe::LoginRequest{1, 0xfeed});
  rig.run();
  rig.send(conn, rig.resting_sell(9, 100, 101.0));
  rig.run();
  // Resubmission while the original is still live.
  rig.send(conn, rig.resting_sell(9, 100, 101.0));
  rig.run();
  EXPECT_EQ(rig.exch.stats().orders_accepted, 1u);
  EXPECT_EQ(rig.exch.stats().duplicate_client_ids_rejected, 1u);

  // Fill the original completely: the id is now terminal — and still owned.
  rig.exch.book(proto::Symbol{"AAA"})
      .submit({rig.exch.next_order_id(), proto::Side::kBuy,
               proto::price_from_dollars(101.0), 100});
  rig.run();
  rig.send(conn, rig.resting_sell(9, 100, 101.0));
  rig.run();
  EXPECT_EQ(rig.exch.stats().orders_accepted, 1u);
  EXPECT_EQ(rig.exch.stats().duplicate_client_ids_rejected, 2u);
  const auto rejects = rig.received<proto::boe::OrderRejected>(conn);
  ASSERT_EQ(rejects.size(), 2u);
  for (const auto& reject : rejects) {
    EXPECT_EQ(reject.client_order_id, 9u);
    EXPECT_EQ(reject.reason, RejectReason::kDuplicateOrderId);
  }
}

TEST(SessionResilience, CancelOnDisconnectPullsRestingOrdersAndJournalsThem) {
  ExchangeRig rig{/*cancel_on_disconnect=*/true};
  auto& first = rig.open();
  rig.send(first, proto::boe::LoginRequest{1, 0xfeed});
  rig.run();
  rig.send(first, rig.resting_sell(1, 100, 101.0));
  rig.send(first, rig.resting_sell(2, 200, 102.0));
  rig.send(first, rig.resting_sell(3, 300, 103.0));
  rig.run();
  ASSERT_EQ(rig.exch.book(proto::Symbol{"AAA"}).open_orders(), 3u);

  first.ep->close();
  rig.run();
  EXPECT_EQ(rig.exch.stats().cod_sessions, 1u);
  EXPECT_EQ(rig.exch.stats().cod_orders_cancelled, 3u);
  EXPECT_EQ(rig.exch.book(proto::Symbol{"AAA"}).open_orders(), 0u);

  // The cancels were journaled: a resumed session replaying the tail sees
  // exactly what the exchange did while it was gone, in sorted id order.
  auto& second = rig.open();
  rig.send(second, proto::boe::LoginRequest{1, 0xfeed});
  rig.run();
  EXPECT_EQ(rig.exch.stats().sessions_resumed, 1u);
  rig.send(second, proto::boe::ReplayRequest{3});  // acks 1..3 were seen live
  rig.run();
  EXPECT_EQ(rig.exch.stats().replayed_messages, 3u);
  const auto cancels = rig.received<proto::boe::OrderCancelled>(second);
  ASSERT_EQ(cancels.size(), 3u);
  EXPECT_EQ(cancels[0].client_order_id, 1u);
  EXPECT_EQ(cancels[1].client_order_id, 2u);
  EXPECT_EQ(cancels[2].client_order_id, 3u);
}

TEST(SessionResilience, TakeoverByLiveCredentialsSkipsCancelOnDisconnect) {
  ExchangeRig rig{/*cancel_on_disconnect=*/true};
  auto& first = rig.open();
  rig.send(first, proto::boe::LoginRequest{1, 0xfeed});
  rig.run();
  rig.send(first, rig.resting_sell(1, 100, 101.0));
  rig.run();

  // The client re-logs in on a new leg while the old one still looks alive
  // (it aborted without a FIN). The session never died: orders stay.
  auto& second = rig.open();
  rig.send(second, proto::boe::LoginRequest{1, 0xfeed});
  rig.run();
  EXPECT_EQ(rig.exch.stats().sessions_taken_over, 1u);
  EXPECT_EQ(rig.exch.stats().cod_sessions, 0u);
  EXPECT_EQ(rig.exch.book(proto::Symbol{"AAA"}).open_orders(), 1u);
  // The usurped leg was closed by the exchange.
  EXPECT_NE(first.ep->state(), net::TcpState::kEstablished);
}

TEST(SessionResilience, WrongTokenIsRejectedWithoutDisturbingTheSession) {
  ExchangeRig rig{/*cancel_on_disconnect=*/true};
  auto& first = rig.open();
  rig.send(first, proto::boe::LoginRequest{1, 0xfeed});
  rig.run();
  rig.send(first, rig.resting_sell(1, 100, 101.0));
  rig.run();

  auto& intruder = rig.open();
  rig.send(intruder, proto::boe::LoginRequest{1, 0xbad});
  rig.run();
  const auto rejects = rig.received<proto::boe::LoginRejected>(intruder);
  ASSERT_EQ(rejects.size(), 1u);
  EXPECT_EQ(rejects[0].reason, RejectReason::kSessionInUse);
  // The rightful owner's leg and orders are untouched.
  EXPECT_EQ(first.ep->state(), net::TcpState::kEstablished);
  EXPECT_EQ(rig.exch.book(proto::Symbol{"AAA"}).open_orders(), 1u);
  EXPECT_EQ(rig.exch.stats().cod_sessions, 0u);
}

// --- gateway side -----------------------------------------------------------

struct GatewayRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch;
  trading::Gateway gw;
  net::Cable up_cable;
  net::Nic strat_nic{engine, "strat", net::MacAddr::from_host_id(30),
                     net::Ipv4Addr{10, 0, 0, 30}};
  net::NetStack strat{strat_nic};
  net::TcpEndpoint* strat_ep = nullptr;
  proto::boe::StreamParser strat_parser;
  std::vector<Message> strat_msgs;
  std::uint32_t seq = 1;

  static trading::GatewayConfig gateway_config(exchange::Exchange& exch) {
    trading::GatewayConfig config;
    config.exchange_mac = exch.order_nic().mac();
    config.exchange_ip = exch.order_nic().ip();
    config.exchange_port = exch.config().order_port;
    config.client_mac = net::MacAddr::from_host_id(20);
    config.client_ip = net::Ipv4Addr{10, 0, 0, 20};
    config.upstream_mac = net::MacAddr::from_host_id(21);
    config.upstream_ip = net::Ipv4Addr{10, 0, 0, 21};
    return config;
  }

  explicit GatewayRig(
      const std::function<void(trading::GatewayConfig&)>& tweak = [](auto&) {})
      : exch(engine, exchange_config(false)), gw(engine, [&] {
          auto config = gateway_config(exch);
          tweak(config);
          return config;
        }()),
        up_cable(fabric.connect(gw.upstream_nic(), 0, exch.order_nic(), 0, net::LinkConfig{})) {
    fabric.connect(strat_nic, 0, gw.client_nic(), 0, net::LinkConfig{});
    strat_ep = &strat.connect_tcp(gw.client_nic().mac(), gw.client_nic().ip(),
                                  gw.config().listen_port, 0);
    strat_ep->set_data_handler([this](std::span<const std::byte> bytes, sim::Time) {
      strat_parser.feed(bytes);
      while (auto decoded = strat_parser.next()) strat_msgs.push_back(decoded->message);
    });
  }

  void start_and_login() {
    gw.start();
    strat_ep->send(proto::boe::encode(proto::boe::LoginRequest{1, 1}, seq++));
    engine.run();
    ASSERT_EQ(gw.upstream_state(), trading::UpstreamState::kReady);
  }

  void send_order(proto::OrderId id, proto::Quantity qty, double dollars) {
    strat_ep->send(proto::boe::encode(
        Message{proto::boe::NewOrder{id, proto::Side::kSell, qty, proto::Symbol{"AAA"},
                                     proto::price_from_dollars(dollars),
                                     proto::boe::TimeInForce::kDay}},
        seq++));
  }

  template <typename T>
  std::vector<T> strat_received() const {
    std::vector<T> out;
    for (const auto& msg : strat_msgs) {
      if (const auto* typed = std::get_if<T>(&msg)) out.push_back(*typed);
    }
    return out;
  }

  void run(std::int64_t ms) { engine.run_until(engine.now() + sim::millis(ms)); }
};

TEST(SessionResilience, GatewayReconnectsAfterKillAndFlowResumes) {
  GatewayRig rig;
  rig.start_and_login();
  rig.send_order(100, 100, 101.0);
  rig.engine.run();
  ASSERT_EQ(rig.strat_received<proto::boe::OrderAccepted>().size(), 1u);

  rig.gw.kill_upstream();
  rig.engine.run();
  EXPECT_EQ(rig.gw.stats().disconnects, 1u);
  EXPECT_EQ(rig.gw.stats().reconnect_attempts, 1u);
  EXPECT_EQ(rig.gw.stats().reconnects_completed, 1u);
  EXPECT_EQ(rig.gw.stats().replays_requested, 1u);
  EXPECT_EQ(rig.gw.upstream_state(), trading::UpstreamState::kReady);
  // Disconnect-to-ready covers at least one backoff step: 2ms initial,
  // minus the worst-case -10% jitter draw.
  EXPECT_GE(rig.gw.last_recovery_duration().picos(),
            sim::millis(std::int64_t{2}).picos() * 9 / 10);
  // The abort was silent, so the exchange saw a takeover, not a resume —
  // and everything was already acked, so nothing replayed or resubmitted.
  EXPECT_EQ(rig.exch.stats().sessions_taken_over, 1u);
  EXPECT_EQ(rig.gw.stats().orders_marked_unknown, 0u);
  EXPECT_EQ(rig.gw.stats().orders_resubmitted, 0u);

  rig.send_order(101, 50, 102.0);
  rig.engine.run();
  EXPECT_EQ(rig.strat_received<proto::boe::OrderAccepted>().size(), 2u);
  EXPECT_EQ(rig.exch.stats().orders_accepted, 2u);
  // Risk exposure is continuous across the disconnect: both orders rest.
  EXPECT_EQ(rig.gw.risk().open_orders(), 2u);
}

TEST(SessionResilience, UnreachedOrderIsResubmittedExactlyOnce) {
  GatewayRig rig;
  rig.start_and_login();
  // Cut the uplink toward the exchange, then send: the order dies on the
  // wire, the gateway's RTO exhausts, and reconciliation must resubmit.
  rig.up_cable.a_to_b->set_admin_up(false);
  rig.send_order(100, 100, 101.0);
  rig.run(60);  // RTO strikes out (~45ms), reconnect attempts begin
  EXPECT_EQ(rig.gw.stats().disconnects, 1u);
  EXPECT_EQ(rig.gw.stats().orders_marked_unknown, 1u);
  ASSERT_EQ(rig.exch.stats().orders_received, 0u);

  rig.up_cable.a_to_b->set_admin_up(true);
  rig.engine.run();
  EXPECT_EQ(rig.gw.upstream_state(), trading::UpstreamState::kReady);
  EXPECT_EQ(rig.gw.stats().orders_resubmitted, 1u);
  // Exactly one execution, one ack to the strategy, one risk reservation.
  EXPECT_EQ(rig.exch.stats().orders_accepted, 1u);
  EXPECT_EQ(rig.strat_received<proto::boe::OrderAccepted>().size(), 1u);
  EXPECT_EQ(rig.gw.risk().open_orders(), 1u);
}

TEST(SessionResilience, LostResponsesAreResolvedByReplayNotResubmission) {
  GatewayRig rig;
  rig.start_and_login();
  // Cut only the exchange->gateway direction: the order reaches the matcher
  // and is journaled, but the ack never comes back. The gateway must learn
  // the outcome from replay — resubmitting would be wrong (dedupe saves us,
  // but the clean path is replay resolution).
  rig.up_cable.b_to_a->set_admin_up(false);
  rig.send_order(100, 100, 101.0);
  rig.run(60);
  EXPECT_EQ(rig.gw.stats().disconnects, 1u);
  EXPECT_EQ(rig.gw.stats().orders_marked_unknown, 1u);
  ASSERT_EQ(rig.exch.stats().orders_accepted, 1u);

  rig.up_cable.b_to_a->set_admin_up(true);
  rig.engine.run();
  EXPECT_EQ(rig.gw.upstream_state(), trading::UpstreamState::kReady);
  EXPECT_EQ(rig.gw.stats().orders_resubmitted, 0u);
  EXPECT_GE(rig.exch.stats().replayed_messages, 1u);
  EXPECT_EQ(rig.exch.stats().orders_accepted, 1u);
  EXPECT_EQ(rig.exch.stats().duplicate_client_ids_rejected, 0u);
  const auto acks = rig.strat_received<proto::boe::OrderAccepted>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].client_order_id, 100u);
}

TEST(SessionResilience, GatewayForwardsCancelsAndRoutesTheResult) {
  // Two day orders rest at the exchange; cancelling one through the gateway
  // takes it off the book and routes the OrderCancelled back under the
  // strategy's own client order id.
  GatewayRig rig;
  rig.start_and_login();
  rig.send_order(100, 100, 101.0);
  rig.send_order(101, 50, 102.0);
  rig.engine.run();
  ASSERT_EQ(rig.strat_received<proto::boe::OrderAccepted>().size(), 2u);
  auto best = rig.exch.book(proto::Symbol{"AAA"}).best();
  ASSERT_TRUE(best.ask_price.has_value());
  EXPECT_EQ(*best.ask_price, proto::price_from_dollars(101.0));

  rig.strat_ep->send(proto::boe::encode(Message{proto::boe::CancelOrder{100}}, rig.seq++));
  rig.engine.run();
  EXPECT_EQ(rig.gw.stats().cancels_forwarded, 1u);
  const auto cancelled = rig.strat_received<proto::boe::OrderCancelled>();
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0].client_order_id, 100u);
  best = rig.exch.book(proto::Symbol{"AAA"}).best();
  ASSERT_TRUE(best.ask_price.has_value());
  EXPECT_EQ(*best.ask_price, proto::price_from_dollars(102.0));
  EXPECT_EQ(rig.gw.risk().open_orders(), 1u);
}

TEST(SessionResilience, PendingUpstreamBoundShedsWithCountedRejects) {
  GatewayRig rig{[](trading::GatewayConfig& config) {
    config.max_pending_upstream = 2;
    // Park the reconnect far in the future: the whole test runs disconnected.
    config.reconnect_backoff_initial = sim::millis(std::int64_t{500});
  }};
  rig.start_and_login();
  rig.gw.kill_upstream();
  rig.run(1);
  for (proto::OrderId id = 100; id < 104; ++id) rig.send_order(id, 10, 101.0);
  rig.run(5);
  EXPECT_EQ(rig.gw.pending_upstream_depth(), 2u);
  EXPECT_EQ(rig.gw.pending_upstream_hwm(), 2u);
  EXPECT_EQ(rig.gw.stats().orders_shed, 2u);
  // Shed orders released their risk reservations; queued ones still hold.
  EXPECT_EQ(rig.gw.risk().open_orders(), 2u);
  const auto rejects = rig.strat_received<proto::boe::OrderRejected>();
  ASSERT_EQ(rejects.size(), 2u);
  for (const auto& reject : rejects) {
    EXPECT_EQ(reject.reason, RejectReason::kGatewayBackpressure);
  }
  // A cancel hitting the full queue is shed too, but keeps the order alive.
  rig.strat_ep->send(proto::boe::encode(Message{proto::boe::CancelOrder{100}}, rig.seq++));
  rig.run(5);
  EXPECT_EQ(rig.gw.stats().cancels_shed, 1u);
  const auto cancel_rejects = rig.strat_received<proto::boe::CancelRejected>();
  ASSERT_EQ(cancel_rejects.size(), 1u);
  EXPECT_EQ(cancel_rejects[0].reason, RejectReason::kGatewayBackpressure);
}

TEST(SessionResilience, ReconnectGivesUpAfterMaxAttempts) {
  GatewayRig rig{[](trading::GatewayConfig& config) {
    config.exchange_port = 9;  // nothing listens: every connect strikes out
    config.reconnect_max_attempts = 3;
    config.reconnect_backoff_initial = sim::millis(std::int64_t{1});
  }};
  rig.gw.start();
  rig.engine.run();
  EXPECT_EQ(rig.gw.upstream_state(), trading::UpstreamState::kFailed);
  EXPECT_EQ(rig.gw.stats().reconnect_attempts, 3u);
  EXPECT_EQ(rig.gw.stats().reconnects_given_up, 1u);
  EXPECT_EQ(rig.gw.stats().reconnects_completed, 0u);
  // Initial connect + 3 retries all died.
  EXPECT_EQ(rig.gw.stats().disconnects, 4u);
}

// Runs kill-then-reconnect and reports when the gateway is ready again.
std::int64_t reconnect_completion_picos(std::uint64_t jitter_seed) {
  GatewayRig rig{[jitter_seed](trading::GatewayConfig& config) {
    config.reconnect_jitter_seed = jitter_seed;
  }};
  rig.gw.start();
  rig.engine.run();
  rig.gw.kill_upstream();
  while (rig.gw.upstream_state() != trading::UpstreamState::kReady) {
    rig.engine.run_until(rig.engine.now() + sim::micros(std::int64_t{10}));
    if (rig.engine.now() > sim::Time{} + sim::millis(std::int64_t{200})) break;
  }
  return rig.engine.now().picos();
}

TEST(SessionResilience, ReconnectBackoffIsSeededAndDeterministic) {
  const auto first = reconnect_completion_picos(0x1111);
  const auto again = reconnect_completion_picos(0x1111);
  const auto other = reconnect_completion_picos(0x2222);
  EXPECT_EQ(first, again);  // same seed: byte-identical schedule
  EXPECT_NE(first, other);  // jitter actually depends on the seed
}

}  // namespace
}  // namespace tsn
