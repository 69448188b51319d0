// Order-entry gateway (§2).
//
// Strategies speak the firm's internal order protocol to a gateway; the
// gateway owns the long-lived session into the exchange, translates order
// ids between the two domains, and routes acknowledgements, rejects, fills
// and cancel results back to the originating strategy session.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/stack.hpp"
#include "proto/boe.hpp"
#include "sim/scheduler.hpp"
#include "sim/random.hpp"
#include "telemetry/metrics.hpp"
#include "trading/risk.hpp"

namespace tsn::trading {

// One exchange front door the gateway can home to. Index 0 is implicitly
// the primary (GatewayConfig::exchange_*); entries in backup_exchanges are
// the hot standbys tried in rotation when reconnects to the primary fail.
struct UpstreamEndpoint {
  net::MacAddr mac;
  net::Ipv4Addr ip;
  std::uint16_t port = 34000;
};

struct GatewayConfig {
  std::string name = "gw";
  std::uint16_t listen_port = 35000;  // tsn-lint: allow(unset-option) deployment port
  net::MacAddr exchange_mac;
  net::Ipv4Addr exchange_ip;
  std::uint16_t exchange_port = 34000;
  sim::Duration software_latency = sim::nanos(std::int64_t{800});
  net::MacAddr client_mac;
  net::Ipv4Addr client_ip;
  net::MacAddr upstream_mac;
  net::Ipv4Addr upstream_ip;
  // When positive, the gateway keeps its exchange session alive with idle
  // heartbeats (exchanges enforce session timeouts; see Exchange's
  // heartbeat_interval/session_timeout).
  sim::Duration heartbeat_interval = sim::Duration::zero();
  // Upstream session identity for resumable re-login. 0 derives a unique id
  // from the upstream NIC's IP so multiple gateways never share a session.
  std::uint32_t session_id = 0;  // tsn-lint: allow(unset-option) an identity the venue assigns
  std::uint64_t login_token = 0xca50ULL;  // tsn-lint: allow(unset-option) a credential
  // Hot-standby exchanges: reconnect attempt 1 retries the primary, later
  // attempts rotate through primary and backups, so a promoted standby is
  // found within a bounded number of backoff steps.
  // tsn-lint: allow(unset-option) wiring: the failover drills point gateways at the standby
  std::vector<UpstreamEndpoint> backup_exchanges;
  // When positive, a login that gets no LoginAccepted/SequenceReset within
  // this window is aborted and treated as a failed attempt. Covers the
  // crash window where the TCP leg is accepted but the exchange dies before
  // answering (the kernel of a dead box still completes handshakes it had
  // queued). Zero disables.
  // tsn-lint: allow(unset-option) the failover drills abort logins a dead venue accepted
  sim::Duration reconnect_response_timeout = sim::Duration::zero();
  // Reconnect state machine: on connection death, back off exponentially
  // (with deterministic jitter from reconnect_jitter_seed), re-login, and
  // reconcile in-flight orders through replay + idempotent resubmission.
  // tsn-lint: allow(unset-option) the session drills land the retry after cancel-on-disconnect
  sim::Duration reconnect_backoff_initial = sim::millis(std::int64_t{2});
  // tsn-lint: allow(unset-option) the failover drills retry through promotion; a test gives up
  int reconnect_max_attempts = 10;
  // tsn-lint: allow(unset-option) SessionResilience: the backoff schedule follows the seed
  std::uint64_t reconnect_jitter_seed = 0x5eedULL;
  // Bound on orders queued while the upstream session is down; excess
  // messages are shed with a counted kGatewayBackpressure reject back to
  // the originating strategy session.
  // tsn-lint: allow(unset-option) SessionResilience: a full queue sheds with counted rejects
  std::size_t max_pending_upstream = 1024;
};

// Upstream session lifecycle (metrics export the numeric value).
enum class UpstreamState : std::uint8_t {
  kIdle = 0,       // before start()
  kLoggingIn = 1,  // TCP connect + LoginRequest in flight
  kReplaying = 2,  // resumed login, ReplayRequest sent, awaiting SequenceReset
  kReady = 3,      // logged in, orders flow
  kBackoff = 4,    // connection died, reconnect timer armed
  kFailed = 5,     // reconnect attempts exhausted
};

struct GatewayStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t orders_forwarded = 0;
  std::uint64_t orders_rejected_risk = 0;
  std::uint64_t cancels_forwarded = 0;
  std::uint64_t responses_routed = 0;
  std::uint64_t orphan_responses = 0;  // upstream messages with no known id
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnects_completed = 0;
  std::uint64_t reconnects_given_up = 0;
  std::uint64_t replays_requested = 0;
  std::uint64_t stale_responses_dropped = 0;  // replay duplicates (seq already applied)
  std::uint64_t orders_marked_unknown = 0;    // in flight when the session died
  std::uint64_t orders_resubmitted = 0;       // unresolved by replay, resent under dedupe
  std::uint64_t duplicate_resubmit_acks = 0;  // dedupe rejects swallowed for resubmissions
  std::uint64_t orders_shed = 0;              // NewOrders dropped by the pending bound
  std::uint64_t cancels_shed = 0;             // cancels/modifies dropped by the bound
  std::uint64_t login_timeouts = 0;           // logins abandoned by the response timeout
};

class Gateway {
 public:
  Gateway(sim::Scheduler& engine, GatewayConfig config);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  [[nodiscard]] net::Nic& client_nic() noexcept { return *client_nic_; }
  [[nodiscard]] net::Nic& upstream_nic() noexcept { return *upstream_nic_; }

  // Connects and logs into the exchange. Call after wiring.
  void start();

  // Kills the upstream connection immediately (no FIN on the wire), as a
  // session-level fault would: the closed handler sees the death and the
  // reconnect machine takes over. Safe to call from a scheduled event.
  void kill_upstream();

  [[nodiscard]] const GatewayStats& stats() const noexcept { return stats_; }
  // Disconnect-to-ready time of the most recent completed recovery (login +
  // replay + resubmission), zero until a reconnect has completed. The
  // session-scale drills bound this; here it is per-gateway observability.
  [[nodiscard]] sim::Duration last_recovery_duration() const noexcept {
    return last_recovery_duration_;
  }
  [[nodiscard]] bool upstream_ready() const noexcept { return upstream_logged_in_; }
  [[nodiscard]] UpstreamState upstream_state() const noexcept { return upstream_state_; }
  [[nodiscard]] std::size_t pending_upstream_depth() const noexcept {
    return pending_upstream_.size();
  }
  [[nodiscard]] std::size_t pending_upstream_hwm() const noexcept {
    return pending_upstream_hwm_;
  }
  [[nodiscard]] const GatewayConfig& config() const noexcept { return config_; }
  // Which front door the current (or most recent) upstream leg targets:
  // 0 = primary, k = backup_exchanges[k - 1]. Drills assert re-homing.
  [[nodiscard]] std::size_t upstream_endpoint_index() const noexcept {
    return upstream_endpoint_index_;
  }
  // Firm-wide exposure view (§4.2).
  [[nodiscard]] const RiskEngine& risk() const noexcept { return risk_; }

  // Registers session/order-flow gauges (including session heartbeats)
  // under "<prefix>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  struct StrategySession {
    net::TcpEndpoint* endpoint = nullptr;
    proto::boe::StreamParser parser;
    std::uint32_t tx_seq = 1;
    bool logged_in = false;
  };

  void on_accept(net::TcpEndpoint& endpoint);
  void on_client_message(StrategySession& session, const proto::boe::Message& message);
  void on_upstream_bytes(std::span<const std::byte> bytes);
  void route_response(proto::OrderId upstream_id, const proto::boe::Message& message,
                      bool final_state);
  void send_upstream(const proto::boe::Message& message);
  void send_to_session(StrategySession& session, const proto::boe::Message& message);
  void heartbeat_tick();
  void connect_upstream();
  void on_upstream_closed(net::TcpCloseReason reason);
  void schedule_reconnect();
  void reconnect_now();
  [[nodiscard]] double reconnect_jitter_factor() noexcept;
  void arm_login_timeout();
  void on_login_accepted();
  void on_sequence_reset();
  void flush_pending_upstream();
  void shed_upstream(const proto::boe::Message& message);
  void transmit_upstream(const proto::boe::Message& message);
  [[nodiscard]] std::uint32_t upstream_session_id() const noexcept;
  void set_upstream_state(UpstreamState state) noexcept { upstream_state_ = state; }

  sim::Scheduler& engine_;
  GatewayConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* client_nic_ = nullptr;
  net::Nic* upstream_nic_ = nullptr;
  std::unique_ptr<net::NetStack> client_stack_;
  std::unique_ptr<net::NetStack> upstream_stack_;

  std::vector<std::unique_ptr<StrategySession>> sessions_;
  net::TcpEndpoint* upstream_ = nullptr;
  proto::boe::StreamParser upstream_parser_;
  std::uint32_t upstream_seq_ = 1;
  bool upstream_logged_in_ = false;
  sim::Time last_upstream_tx_;
  std::deque<proto::boe::Message> pending_upstream_;
  std::size_t pending_upstream_hwm_ = 0;

  UpstreamState upstream_state_ = UpstreamState::kIdle;
  sim::Time last_disconnect_at_;  // set on upstream death, consumed on recovery
  sim::Duration last_recovery_duration_ = sim::Duration::zero();
  bool ever_logged_in_ = false;   // first LoginAccepted vs resumed session
  int backoff_attempt_ = 0;       // consecutive failed attempts (resets on ready)
  std::uint32_t last_applied_seq_ = 0;  // highest sequenced response applied
  std::size_t upstream_endpoint_index_ = 0;  // 0 = primary, k = backups[k-1]

  struct OrderRoute {
    StrategySession* session = nullptr;
    proto::OrderId client_id = 0;
    // The NewOrder exactly as forwarded upstream (upstream id inside): the
    // resubmission payload when replay leaves the order unresolved.
    proto::boe::NewOrder forwarded;
    bool sent = false;         // handed to the upstream TCP endpoint
    bool acked = false;        // some sequenced response referenced it
    bool resubmitted = false;  // resent after a reconnect, under dedupe
  };
  std::unordered_map<proto::OrderId, OrderRoute> routes_;        // upstream id -> origin
  // Lookup-only: never iterated or exported, so the pointer key cannot leak
  // address-dependent order into replay; sessions outlive every entry.
  // tsn-lint: allow(pointer-identity) lookup-only map, iteration order never observed
  std::unordered_map<StrategySession*,
                     std::unordered_map<proto::OrderId, proto::OrderId>>
      forward_ids_;  // (session, client id) -> upstream id
  proto::OrderId next_upstream_id_ = 1;

  // Pre-trade risk gate at the default RiskLimits (§4.2: firm-wide position
  // and risk tracking sits where every order passes).
  RiskEngine risk_;
  GatewayStats stats_;
  // Wire arrival of the client bytes currently being parsed: the start of
  // the gateway's software span for orders they carry.
  sim::Time current_client_arrival_;
};

}  // namespace tsn::trading
