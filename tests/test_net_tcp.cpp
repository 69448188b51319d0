#include "sim/engine.hpp"
#include "net/tcp_lite.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "net/stack.hpp"

namespace tsn::net {
namespace {

// Two hosts wired back to back, with stacks.
struct TcpPair {
  sim::Engine engine;
  Fabric fabric{engine};
  Nic client_nic{engine, "client", MacAddr::from_host_id(1), Ipv4Addr{10, 0, 0, 1}};
  Nic server_nic{engine, "server", MacAddr::from_host_id(2), Ipv4Addr{10, 0, 0, 2}};
  NetStack client{client_nic};
  NetStack server{server_nic};
  Cable cable;  // a_to_b: client -> server

  explicit TcpPair(LinkConfig link = LinkConfig{}) {
    cable = fabric.connect(client_nic, 0, server_nic, 0, link);
  }
};

std::vector<std::byte> bytes_of(std::string_view text) {
  std::vector<std::byte> out;
  for (char c : text) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string to_text(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

TEST(TcpLite, HandshakeEstablishesBothEnds) {
  TcpPair t;
  TcpEndpoint* accepted = nullptr;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) { accepted = &ep; });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.engine.run();
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(client.state(), TcpState::kEstablished);
  EXPECT_EQ(accepted->state(), TcpState::kEstablished);
  EXPECT_EQ(accepted->peer_port(), client.local_port());
}

TEST(TcpLite, ConnectToClosedPortNeverEstablishes) {
  TcpPair t;
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 9, 0);
  t.engine.run();
  // SYN retries exhaust and the endpoint gives up.
  EXPECT_EQ(client.state(), TcpState::kClosed);
  EXPECT_GT(client.retransmit_count(), 0u);
}

TEST(TcpLite, DataFlowsInOrder) {
  TcpPair t;
  std::string received;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    ep.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
      received += to_text(bytes);
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  const auto hello = bytes_of("hello ");
  const auto world = bytes_of("world");
  client.send(hello);
  client.send(world);
  t.engine.run();
  EXPECT_EQ(received, "hello world");
  EXPECT_EQ(client.bytes_sent(), 11u);
}

TEST(TcpLite, DataQueuedBeforeEstablishmentIsFlushed) {
  TcpPair t;
  std::string received;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    ep.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
      received += to_text(bytes);
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  client.send(bytes_of("early"));  // handshake not done yet
  t.engine.run();
  EXPECT_EQ(received, "early");
}

TEST(TcpLite, LargeSendIsSegmented) {
  TcpPair t;
  std::size_t received = 0;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    ep.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
      received += bytes.size();
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  const std::vector<std::byte> big(10'000, std::byte{0x5a});
  client.send(big);
  t.engine.run();
  EXPECT_EQ(received, 10'000u);
}

TEST(TcpLite, RecoversFromLoss) {
  // 20% frame loss each way: retransmission must still deliver everything,
  // in order, exactly once.
  LinkConfig lossy;
  lossy.loss_probability = 0.2;
  TcpPair t{lossy};
  std::string received;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    ep.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
      received += to_text(bytes);
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  std::string expected;
  for (int i = 0; i < 50; ++i) {
    const std::string chunk = "msg" + std::to_string(i) + ";";
    expected += chunk;
    client.send(bytes_of(chunk));
  }
  t.engine.run();
  EXPECT_EQ(received, expected);
  EXPECT_EQ(client.bytes_sent(), expected.size());
}

TEST(TcpLite, BidirectionalTransfer) {
  TcpPair t;
  std::string client_got;
  std::string server_got;
  TcpEndpoint* server_ep = nullptr;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    server_ep = &ep;
    ep.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
      server_got += to_text(bytes);
      // Echo back.
      server_ep->send(bytes);
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  client.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
    client_got += to_text(bytes);
  });
  client.send(bytes_of("ping"));
  t.engine.run();
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "ping");
}

TEST(TcpLite, LongLivedSessionManyMessages) {
  // §2: order sessions live 6+ hours and carry a steady message flow.
  TcpPair t;
  std::size_t received = 0;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    ep.set_data_handler([&](std::span<const std::byte> bytes, sim::Time) {
      received += bytes.size();
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.engine.run();
  std::size_t sent = 0;
  for (int burst = 0; burst < 100; ++burst) {
    const auto chunk = bytes_of("order-entry-message-37-bytes-long....");
    client.send(chunk);
    sent += chunk.size();
    t.engine.run();
  }
  EXPECT_EQ(received, sent);
  EXPECT_EQ(client.state(), TcpState::kEstablished);
  EXPECT_EQ(client.retransmit_count(), 0u);  // clean links, no spurious RTOs
}

TEST(TcpLite, CloseTransitionsStates) {
  TcpPair t;
  TcpEndpoint* server_ep = nullptr;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) { server_ep = &ep; });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.engine.run();
  client.close();
  t.engine.run();
  ASSERT_NE(server_ep, nullptr);
  EXPECT_EQ(server_ep->state(), TcpState::kCloseWait);
  server_ep->close();
  t.engine.run();
  EXPECT_EQ(server_ep->state(), TcpState::kClosed);
  EXPECT_EQ(client.state(), TcpState::kClosed);
}

TEST(TcpLite, EphemeralPortsAreDistinct) {
  TcpPair t;
  t.server.listen_tcp(34000, [](TcpEndpoint&) {});
  TcpEndpoint& c1 = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  TcpEndpoint& c2 = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  EXPECT_NE(c1.local_port(), c2.local_port());
  t.engine.run();
  EXPECT_EQ(c1.state(), TcpState::kEstablished);
  EXPECT_EQ(c2.state(), TcpState::kEstablished);
}

// --- death notification (session resilience relies on these) ----------------

TEST(TcpLite, ClosedHandlerFiresOnPeerFin) {
  TcpPair t;
  TcpEndpoint* server_ep = nullptr;
  TcpCloseReason reason = TcpCloseReason::kNone;
  int notifications = 0;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) {
    server_ep = &ep;
    ep.set_closed_handler([&](TcpCloseReason r) {
      reason = r;
      ++notifications;
    });
  });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.engine.run();
  client.close();
  t.engine.run();
  ASSERT_NE(server_ep, nullptr);
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(reason, TcpCloseReason::kPeerFin);
  EXPECT_EQ(server_ep->close_reason(), TcpCloseReason::kPeerFin);
}

TEST(TcpLite, SilentPeerDeathExhaustsRetriesAndNotifies) {
  // The peer dies silently (admin-down both directions): the survivor's
  // RTO retries exhaust and the owner is told, so a gateway can start its
  // reconnect machine without polling state().
  sim::Engine engine;
  Fabric fabric{engine};
  Nic client_nic{engine, "client", MacAddr::from_host_id(1), Ipv4Addr{10, 0, 0, 1}};
  Nic server_nic{engine, "server", MacAddr::from_host_id(2), Ipv4Addr{10, 0, 0, 2}};
  NetStack client{client_nic};
  NetStack server{server_nic};
  Cable cable = fabric.connect(client_nic, 0, server_nic, 0, LinkConfig{});
  server.listen_tcp(34000, [](TcpEndpoint&) {});
  TcpEndpoint& ep = client.connect_tcp(server_nic.mac(), server_nic.ip(), 34000, 0);
  TcpCloseReason reason = TcpCloseReason::kNone;
  int notifications = 0;
  ep.set_closed_handler([&](TcpCloseReason r) {
    reason = r;
    ++notifications;
  });
  engine.run();
  ASSERT_EQ(ep.state(), TcpState::kEstablished);
  cable.a_to_b->set_admin_up(false);
  cable.b_to_a->set_admin_up(false);
  ep.send(bytes_of("into the void"));
  engine.run();
  EXPECT_EQ(ep.state(), TcpState::kClosed);
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(reason, TcpCloseReason::kRetransmitExhausted);
  EXPECT_GT(ep.retransmit_count(), 0u);
}

// The server writes "AAAA", then "BBBB" while its link to the client is
// down, then closes once the link is back up: its FIN reaches the client
// ahead of the lost bytes, well inside the retransmit timeout.
struct FinAheadOfGap {
  TcpPair t;
  TcpEndpoint* server_ep = nullptr;
  TcpEndpoint* client_ep = nullptr;
  std::string received;
  std::vector<TcpCloseReason> closes;

  FinAheadOfGap() {
    t.server.listen_tcp(34000, [this](TcpEndpoint& ep) { server_ep = &ep; });
    client_ep = &t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
    client_ep->set_data_handler(
        [this](std::span<const std::byte> bytes, sim::Time) { received += to_text(bytes); });
    client_ep->set_closed_handler([this](TcpCloseReason r) { closes.push_back(r); });
    t.engine.run();
    server_ep->send(bytes_of("AAAA"));
    t.engine.run();
    t.cable.b_to_a->set_admin_up(false);
    server_ep->send(bytes_of("BBBB"));
    t.engine.run_until(t.engine.now() + sim::micros(std::int64_t{10}));
    t.cable.b_to_a->set_admin_up(true);
    server_ep->close();
    t.engine.run_until(t.engine.now() + sim::micros(std::int64_t{10}));
  }
};

TEST(TcpLite, FinAheadOfMissingBytesWaitsForThem) {
  // The FIN must not close the stream over the gap, nor acknowledge bytes
  // that never arrived.
  FinAheadOfGap s;
  EXPECT_EQ(s.received, "AAAA");
  EXPECT_EQ(s.client_ep->state(), TcpState::kEstablished);
  s.t.engine.run();

  EXPECT_EQ(s.received, "AAAABBBB");
  EXPECT_EQ(s.closes, (std::vector<TcpCloseReason>{TcpCloseReason::kPeerFin}));
  EXPECT_EQ(s.client_ep->state(), TcpState::kCloseWait);
  EXPECT_GE(s.server_ep->retransmit_count(), 1u) << "the gap is resent, not acknowledged away";
}

TEST(TcpLite, CloseWhileFinHeldClosesBothEnds) {
  // The peer has finished sending, so an owner's close() over a held FIN
  // ends the flow at once instead of waiting in kFinWait for bytes the
  // closed peer will never resend.
  FinAheadOfGap s;
  ASSERT_EQ(s.client_ep->state(), TcpState::kEstablished);
  s.client_ep->close();
  s.t.engine.run();

  EXPECT_EQ(s.received, "AAAA");
  EXPECT_TRUE(s.closes.empty()) << "the owner closed; no notification";
  EXPECT_EQ(s.client_ep->state(), TcpState::kClosed);
  EXPECT_EQ(s.server_ep->state(), TcpState::kClosed);
  EXPECT_EQ(s.t.client.reap_closed(), 1u);
  EXPECT_EQ(s.t.server.reap_closed(), 1u);
}

TEST(TcpLite, AbortOnHeldFinSendsNothingAfter) {
  // An owner that aborts from its closed handler, as the gateway does, ends
  // the flow there: the ACK that takes in the held FIN is the last frame.
  FinAheadOfGap s;
  std::uint64_t tx_at_abort = 0;
  s.client_ep->set_closed_handler([&](TcpCloseReason) {
    s.client_ep->abort();
    tx_at_abort = s.t.client_nic.tx_frames();
  });
  s.t.engine.run();

  EXPECT_EQ(s.received, "AAAABBBB");
  EXPECT_EQ(s.client_ep->state(), TcpState::kClosed);
  EXPECT_EQ(s.t.client_nic.tx_frames(), tx_at_abort);
}

TEST(TcpLite, LostFinIsResentUntilAcknowledged) {
  // The server's FIN is lost while its link to the client is down for
  // 10 us. The retransmit timer resends it, so the client still hears the
  // close instead of sitting in kEstablished.
  TcpPair t;
  TcpEndpoint* server_ep = nullptr;
  t.server.listen_tcp(34000, [&](TcpEndpoint& ep) { server_ep = &ep; });
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  std::vector<TcpCloseReason> closes;
  client.set_closed_handler([&](TcpCloseReason r) { closes.push_back(r); });
  t.engine.run();
  ASSERT_NE(server_ep, nullptr);
  t.cable.b_to_a->set_admin_up(false);
  server_ep->close();
  t.engine.run_until(t.engine.now() + sim::micros(std::int64_t{10}));
  t.cable.b_to_a->set_admin_up(true);
  t.engine.run();

  EXPECT_EQ(closes, (std::vector<TcpCloseReason>{TcpCloseReason::kPeerFin}));
  EXPECT_EQ(client.state(), TcpState::kCloseWait);
  EXPECT_GE(server_ep->retransmit_count(), 1u);
}

TEST(TcpLite, UnansweredCloseGivesUpAfterTheRetransmitBudget) {
  // The peer is gone: the closer's FIN retries run out as a data sender's
  // do, and the endpoint closes, so reap_closed() frees it rather than
  // leaving it in kFinWait for good.
  TcpPair t;
  t.server.listen_tcp(34000, [](TcpEndpoint&) {});
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.engine.run();
  ASSERT_EQ(client.state(), TcpState::kEstablished);
  t.cable.a_to_b->set_admin_up(false);
  t.cable.b_to_a->set_admin_up(false);
  client.close();
  t.engine.run();

  EXPECT_EQ(client.state(), TcpState::kClosed);
  EXPECT_EQ(client.retransmit_count(), static_cast<std::uint64_t>(kTcpMaxRetransmits));
  EXPECT_EQ(t.client.reap_closed(), 1u);
}

TEST(TcpLite, FailedConnectNotifiesRetransmitExhaustion) {
  // SYN to a closed port: the connect itself fails and the closed handler
  // still fires, so reconnect backoff grows across failed attempts too.
  TcpPair t;
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 9, 0);
  TcpCloseReason reason = TcpCloseReason::kNone;
  client.set_closed_handler([&](TcpCloseReason r) { reason = r; });
  t.engine.run();
  EXPECT_EQ(client.state(), TcpState::kClosed);
  EXPECT_EQ(reason, TcpCloseReason::kRetransmitExhausted);
}

TEST(TcpLite, AbortDropsEverythingAndNotifiesOnce) {
  TcpPair t;
  t.server.listen_tcp(34000, [](TcpEndpoint&) {});
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  int notifications = 0;
  TcpCloseReason reason = TcpCloseReason::kNone;
  client.set_closed_handler([&](TcpCloseReason r) {
    reason = r;
    ++notifications;
  });
  t.engine.run();
  client.send(bytes_of("unacked"));
  client.abort();
  EXPECT_EQ(client.state(), TcpState::kClosed);
  EXPECT_EQ(reason, TcpCloseReason::kAborted);
  EXPECT_EQ(notifications, 1);
  client.abort();  // idempotent: no second notification
  EXPECT_EQ(notifications, 1);
  t.engine.run();  // any stray timers fire harmlessly
  EXPECT_EQ(notifications, 1);
}

TEST(TcpLite, LocalCloseDoesNotFireClosedHandler) {
  // The owner initiated the close; telling it again would double-trigger
  // reconnect logic.
  TcpPair t;
  t.server.listen_tcp(34000, [](TcpEndpoint&) {});
  TcpEndpoint& client = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  int notifications = 0;
  client.set_closed_handler([&](TcpCloseReason) { ++notifications; });
  t.engine.run();
  client.close();
  t.engine.run();
  EXPECT_EQ(notifications, 0);
}

TEST(TcpLite, ReapClosedRemovesDeadFlows) {
  TcpPair t;
  t.server.listen_tcp(34000, [](TcpEndpoint&) {});
  TcpEndpoint& c1 = t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.client.connect_tcp(t.server_nic.mac(), t.server_nic.ip(), 34000, 0);
  t.engine.run();
  EXPECT_EQ(t.client.tcp_flow_count(), 2u);
  EXPECT_EQ(t.client.reap_closed(), 0u);  // nothing dead yet
  c1.abort();
  t.engine.run();
  EXPECT_EQ(t.client.reap_closed(), 1u);
  EXPECT_EQ(t.client.tcp_flow_count(), 1u);
}

}  // namespace
}  // namespace tsn::net
