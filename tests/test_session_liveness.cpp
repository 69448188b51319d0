// Session liveness on the order-entry link: exchanges heartbeat idle
// sessions and disconnect dead counterparties (§2's long-lived TCP
// sessions survive six-hour days only because both ends prove liveness).
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include "boe_client.hpp"
#include "exchange/exchange.hpp"
#include "net/fabric.hpp"
#include "trading/gateway.hpp"

namespace tsn {
namespace {

exchange::ExchangeConfig exchange_config() {
  exchange::ExchangeConfig config;
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.heartbeat_interval = sim::millis(std::int64_t{20});
  config.session_timeout = sim::millis(std::int64_t{65});
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  return config;
}

struct LivenessRig {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch{engine, exchange_config()};
  net::Nic client_nic{engine, "client", net::MacAddr::from_host_id(10),
                      net::Ipv4Addr{10, 0, 0, 10}};
  net::NetStack client{client_nic};
  net::Cable cable{fabric.connect(exch.order_nic(), 0, client_nic, 0, net::LinkConfig{})};
  BoeClient session{client, exch.order_nic().mac(), exch.order_nic().ip(),
                    exch.config().order_port};

  [[nodiscard]] std::size_t heartbeats_received() const {
    return session.received<proto::boe::Heartbeat>().size();
  }

  void login() {
    session.send(proto::boe::LoginRequest{1, 0xfeed});
    engine.run_until(engine.now() + sim::millis(std::int64_t{1}));
  }

  void run_for(std::int64_t ms) { engine.run_until(engine.now() + sim::millis(ms)); }
};

TEST(SessionLiveness, IdleSessionReceivesHeartbeats) {
  LivenessRig rig;
  rig.login();
  rig.exch.start_heartbeats();
  rig.run_for(60);  // under the timeout; several heartbeat intervals
  EXPECT_GE(rig.heartbeats_received(), 1u);
  EXPECT_GE(rig.exch.stats().heartbeats_sent, 1u);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
}

TEST(SessionLiveness, SilentSessionTimesOutAndIsDisconnected) {
  LivenessRig rig;
  rig.login();
  rig.exch.start_heartbeats();
  // The client never answers; TCP ACKs alone don't count as liveness.
  rig.run_for(200);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 1u);
  // The exchange closed the connection (FIN reached the client).
  EXPECT_NE(rig.session.ep->state(), net::TcpState::kEstablished);
}

TEST(SessionLiveness, ClientHeartbeatsKeepTheSessionAlive) {
  LivenessRig rig;
  rig.login();
  rig.exch.start_heartbeats();
  for (int i = 0; i < 20; ++i) {
    rig.session.send(proto::boe::Heartbeat{});
    rig.run_for(15);
  }
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
  EXPECT_EQ(rig.session.ep->state(), net::TcpState::kEstablished);
}

TEST(SessionLiveness, SilentSessionDiesInExactlyTheTimeoutWindow) {
  // heartbeat_interval = 20ms, session_timeout = 65ms: the exchange sweeps
  // on the heartbeat tick and kills a session at the FIRST tick where idle
  // time exceeds the timeout — not a tick earlier, not a tick later.
  LivenessRig rig;
  rig.login();  // last_rx ~ now; heartbeat ticks start counting from here
  rig.exch.start_heartbeats();
  // Ticks land near 21/41/61/81ms. At 61ms idle < 65ms: still alive.
  rig.run_for(70);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
  // The 81ms tick sees idle > 65ms: dead exactly one sweep past the window.
  rig.run_for(15);
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 1u);
}

TEST(SessionLiveness, ClientHeartbeatsRefreshWithoutPingPong) {
  // Incoming heartbeats are pure liveness: they refresh the idle clock but
  // are never answered, so a chatty client cannot trigger a heartbeat echo
  // storm. The exchange only heartbeats a session that has gone quiet.
  LivenessRig rig;
  rig.login();
  rig.exch.start_heartbeats();
  for (int i = 0; i < 50; ++i) {
    rig.session.send(proto::boe::Heartbeat{});
    rig.run_for(2);
  }
  // 50 client heartbeats over 100ms: session alive, and the exchange sent
  // nothing back (idle never crossed one heartbeat interval).
  EXPECT_EQ(rig.exch.stats().sessions_timed_out, 0u);
  EXPECT_EQ(rig.exch.stats().heartbeats_sent, 0u);
  EXPECT_EQ(rig.heartbeats_received(), 0u);
  EXPECT_EQ(rig.session.ep->state(), net::TcpState::kEstablished);
}

TEST(SessionLiveness, StartHeartbeatsValidatesConfig) {
  sim::Engine engine;
  auto config = exchange_config();
  config.heartbeat_interval = sim::Duration::zero();
  exchange::Exchange exch{engine, std::move(config)};
  EXPECT_THROW(exch.start_heartbeats(), std::invalid_argument);
}

TEST(SessionLiveness, GatewayKeepAliveSurvivesExchangeTimeouts) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::Exchange exch{engine, exchange_config()};
  trading::GatewayConfig gconfig;
  gconfig.exchange_mac = exch.order_nic().mac();
  gconfig.exchange_ip = exch.order_nic().ip();
  gconfig.exchange_port = exch.config().order_port;
  gconfig.heartbeat_interval = sim::millis(std::int64_t{25});  // < session_timeout
  gconfig.client_mac = net::MacAddr::from_host_id(20);
  gconfig.client_ip = net::Ipv4Addr{10, 0, 0, 20};
  gconfig.upstream_mac = net::MacAddr::from_host_id(21);
  gconfig.upstream_ip = net::Ipv4Addr{10, 0, 0, 21};
  trading::Gateway gateway{engine, gconfig};
  fabric.connect(gateway.upstream_nic(), 0, exch.order_nic(), 0, net::LinkConfig{});
  gateway.start();
  exch.start_heartbeats();
  engine.run_until(engine.now() + sim::millis(std::int64_t{500}));
  EXPECT_TRUE(gateway.upstream_ready());
  EXPECT_GT(gateway.stats().heartbeats_sent, 5u);
  EXPECT_EQ(exch.stats().sessions_timed_out, 0u);
}

}  // namespace
}  // namespace tsn
