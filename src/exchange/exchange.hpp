// A simulated exchange (§2).
//
// The exchange owns a price-time-priority book per listed symbol, publishes
// every book change on its PITCH-style multicast feed (partitioned across
// units by a configurable scheme), and accepts BOE-style order-entry
// sessions over TCP. It runs on a Host with two NICs: NIC 0 publishes
// market data, NIC 1 terminates order sessions — mirroring how real
// cross-connects separate the two (§2).
//
// Message packing: events that occur at the same simulation instant pack
// into one datagram (the flush runs after the current event cascade), which
// is how real feeds end up with multi-message frames during bursts and
// single-message frames when quiet — the bimodal frame-length mix of
// Table 1.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "book/order_book.hpp"
#include "exchange/session_store.hpp"
#include "net/stack.hpp"
#include "proto/boe.hpp"
#include "proto/partition.hpp"
#include "proto/pitch.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::exchange {

// In-process order-entry transport for population-scale load: a direct
// connection skips TcpLite entirely (no endpoint, no stream parser, no
// per-byte simulation) while running the identical session state machine —
// login, journal, replay, dedupe, cancel-on-disconnect, liveness. The
// exchange pushes every outbound message through on_direct_bytes; inbound
// messages are injected with Exchange::deliver_direct and still pay the
// matching latency before the matcher acts.
//
// Callbacks run inside the exchange's own send path: implementations must
// not call back into close_direct/deliver_direct synchronously (schedule a
// zero-delay event instead) — the same re-entrancy rule as
// net::TcpEndpoint::abort.
class DirectClient {
 public:
  virtual ~DirectClient() = default;
  virtual void on_direct_bytes(std::uint32_t conn, std::span<const std::byte> bytes) = 0;
  // The exchange dropped the connection (liveness timeout or takeover).
  virtual void on_direct_closed(std::uint32_t conn) { (void)conn; }
};

// Admission tap for hot-standby replication: the primary exchange reports
// every state-changing admitted input — successful logins, messages
// dispatched for a bound session, and session-death declarations — in
// admission order, inside the same event cascade that produces the client's
// acknowledgement. A ReplicaStream forwards the taps to a backup exchange,
// which applies them through the identical handlers, so the pair's state
// digests stay byte-equal at every replication sequence point.
class InputListener {
 public:
  virtual ~InputListener() = default;
  virtual void on_admitted_login(std::uint32_t session_id, std::uint64_t token) = 0;
  virtual void on_admitted_message(std::uint32_t session_id,
                                   const proto::boe::Message& message) = 0;
  virtual void on_admitted_session_dead(std::uint32_t session_id) = 0;
};

struct SymbolSpec {
  proto::Symbol symbol;
  proto::InstrumentKind kind = proto::InstrumentKind::kEquity;
  proto::Price reference_price = proto::price_from_dollars(100.0);
};

struct ExchangeConfig {
  std::string name = "EXCH";
  std::uint8_t exchange_id = 0;
  std::vector<SymbolSpec> symbols;
  // Maps a symbol to a feed unit in [0, unit_count).
  std::shared_ptr<const proto::PartitionScheme> feed_partitioning;
  // Multicast group for unit u is feed_group_base + u.
  net::Ipv4Addr feed_group_base{239, 100, 0, 0};
  std::uint16_t feed_port = 30001;
  // Redundant A/B publication: real feeds publish every datagram twice, on
  // two groups that traverse disjoint paths, so receivers can arbitrate and
  // survive single-path loss (§4). When enabled, unit u's datagrams also go
  // to feed_group_b_base + u with byte-identical payloads (same sequences).
  // tsn-lint: allow(unset-option) the A/B drills arbitrate two lines; Design runs use one
  bool dual_publish = false;
  // tsn-lint: allow(unset-option) a deployment setting: each venue or firm picks its own addresses
  net::Ipv4Addr feed_group_b_base{239, 102, 0, 0};
  // Snapshot (gap-recovery) channel: unit u's snapshots go to
  // snapshot_group_base + u on snapshot_port. Started via start_snapshots().
  net::Ipv4Addr snapshot_group_base{239, 101, 0, 0};
  std::uint16_t snapshot_port = 30002;  // tsn-lint: allow(unset-option) deployment port
  sim::Duration snapshot_interval = sim::millis(std::int64_t{10});
  std::uint16_t order_port = 34000;  // tsn-lint: allow(unset-option) deployment port
  // Session liveness: when heartbeat_interval is positive (and
  // start_heartbeats() is called), the exchange sends a Heartbeat to any
  // session idle longer than the interval and declares sessions dead after
  // session_timeout of silence (default 3x the interval). Incoming
  // heartbeats are pure liveness: they refresh the timer and get no reply
  // (reply-to-heartbeat schemes ping-pong forever).
  sim::Duration heartbeat_interval = sim::Duration::zero();
  sim::Duration session_timeout = sim::Duration::zero();
  // Cancel-on-disconnect: when a session is declared dead (timeout or
  // connection death), purge its resting orders from the books. The
  // resulting DeleteOrder messages go out on the feed, and the
  // OrderCancelled responses are journaled for replay at re-login — the
  // §2/§4.2 safety contract real venues offer the firm's gateway.
  bool cancel_on_disconnect = false;
  // --- million-session scale-out (ROADMAP item 2) ---
  // Session-directory shards (rounded up to a power of two). Lookups hash
  // straight to a shard; 1 keeps PR 5's single-directory behavior.
  std::uint32_t session_shards = 1;
  // When true, each heartbeat tick sweeps only the connected sessions of
  // shard (tick % session_shards) plus every pre-login connection, so a
  // tick costs O(population / shards) instead of O(population). A silent
  // session is then declared dead up to (shards - 1) ticks later than the
  // legacy full scan — deterministic, just coarser. False preserves PR 5's
  // exact per-tick semantics.
  bool sharded_liveness_sweep = false;
  // Pre-sizing for the pooled session store (sessions / concurrently open
  // orders / journal byte arena). Zero leaves growth on demand.
  std::size_t expected_sessions = 0;
  std::size_t expected_open_orders = 0;
  std::size_t expected_journal_bytes = 0;
  net::MacAddr feed_mac;
  net::Ipv4Addr feed_ip;
  net::MacAddr order_mac;
  net::Ipv4Addr order_ip;
};

struct ExchangeStats {
  std::uint64_t feed_messages = 0;
  std::uint64_t feed_datagrams = 0;
  std::uint64_t feed_datagrams_b = 0;      // B-line copies (dual_publish only)
  std::uint64_t feed_datagrams_muted = 0;  // built but suppressed (hot standby)
  std::uint64_t orders_received = 0;
  std::uint64_t orders_accepted = 0;
  std::uint64_t orders_rejected = 0;
  std::uint64_t cancels_received = 0;
  std::uint64_t cancel_rejects = 0;  // includes the §2 cancel/fill race
  std::uint64_t fills_sent = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t sessions_timed_out = 0;
  std::uint64_t sessions_resumed = 0;     // re-login onto an existing session
  std::uint64_t sessions_taken_over = 0;  // re-login displacing a live connection
  std::uint64_t replays_served = 0;
  std::uint64_t replayed_messages = 0;
  std::uint64_t cod_sessions = 0;          // cancel-on-disconnect sweeps
  std::uint64_t cod_orders_cancelled = 0;  // resting orders pulled by those sweeps
  std::uint64_t duplicate_client_ids_rejected = 0;
};

class Exchange {
 public:
  Exchange(sim::Scheduler& engine, ExchangeConfig config);
  ~Exchange();
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  // The two NICs to wire into a topology.
  [[nodiscard]] net::Nic& feed_nic() noexcept { return *feed_nic_; }
  [[nodiscard]] net::Nic& order_nic() noexcept { return *order_nic_; }

  [[nodiscard]] const ExchangeConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint8_t unit_count() const noexcept;
  [[nodiscard]] net::Ipv4Addr unit_group(std::uint8_t unit) const noexcept;
  [[nodiscard]] net::Ipv4Addr unit_group_b(std::uint8_t unit) const noexcept {
    return net::Ipv4Addr{config_.feed_group_b_base.value() + unit};
  }
  [[nodiscard]] net::Ipv4Addr snapshot_group(std::uint8_t unit) const noexcept {
    return net::Ipv4Addr{config_.snapshot_group_base.value() + unit};
  }
  [[nodiscard]] std::uint8_t unit_of(const proto::Symbol& symbol) const;

  // Begins heartbeat emission and session-timeout enforcement (requires a
  // positive heartbeat_interval).
  void start_heartbeats();

  // Begins the periodic snapshot cycle (§2-adjacent operational machinery:
  // real feeds pair the incremental stream with a recovery channel).
  // Publishes every unit's resting orders each interval until the run ends.
  void start_snapshots();
  [[nodiscard]] std::uint64_t snapshots_published() const noexcept {
    return snapshots_published_;
  }

  // Direct book access, used by the background activity driver. Changes
  // made through the returned book are published on the feed.
  [[nodiscard]] book::OrderBook& book(const proto::Symbol& symbol);
  [[nodiscard]] const std::vector<SymbolSpec>& symbols() const noexcept {
    return config_.symbols;
  }

  // Allocates an exchange-side order id (the activity driver uses these so
  // its ids never collide with session orders).
  [[nodiscard]] proto::OrderId next_order_id() noexcept { return next_order_id_++; }

  [[nodiscard]] const ExchangeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::Scheduler& engine() noexcept { return engine_; }

  // --- direct (in-process) order-entry connections ---------------------
  // Opens a TCP-less connection bound to `client`; returns its connection
  // id for deliver_direct/close_direct. Session semantics are identical to
  // the TCP path.
  [[nodiscard]] std::uint32_t open_direct(DirectClient& client);
  // Injects one inbound message; the matcher acts after the matching latency.
  void deliver_direct(std::uint32_t conn, const proto::boe::Message& message);
  // Client-side drop (no on_direct_closed callback). Like
  // net::TcpEndpoint::abort, safe to call only from outside the exchange's
  // own callbacks.
  void close_direct(std::uint32_t conn);

  // Pooled session/order/journal state (read-only; tests and benches).
  [[nodiscard]] const SessionStore& session_store() const noexcept { return store_; }

  // --- hot-standby replication & failover ------------------------------
  // Primary side: taps every admitted input (borrowed; may be null).
  void set_input_listener(InputListener* listener) noexcept { input_listener_ = listener; }
  // Backup side: feed datagrams are built (sequences advance in lockstep
  // with the primary) but not transmitted until promotion unmutes them —
  // the promoted backup then continues the A/B streams seamlessly.
  void set_feed_muted(bool muted) noexcept { feed_muted_ = muted; }
  // While not accepting, new order-port connections are closed immediately
  // (a follower must not admit inputs of its own); promotion re-opens.
  void set_accepting(bool accepting) noexcept { accepting_ = accepting; }

  // Backup side: applies one replicated admission through the identical
  // handlers the primary ran, with the exchange clock pinned to the
  // primary's admission instant `at_ps` so every timestamped byte (feed
  // time offsets, journaled ack transact times) comes out byte-identical.
  void apply_replicated_login(std::uint32_t session_id, std::uint64_t token,
                              std::int64_t at_ps);
  void apply_replicated_message(std::uint32_t session_id, const proto::boe::Message& message,
                                std::int64_t at_ps);
  void apply_replicated_session_dead(std::uint32_t session_id, std::int64_t at_ps);

  // Process death (fault::FaultInjector kProcessCrash): freezes all state —
  // no sends, no matching, no ticks — while the "kernel" FINs every live
  // leg and any later accepted connection, exactly what a dead box looks
  // like from a gateway. No cancel-on-disconnect runs: a dead matcher
  // cannot pull its own orders.
  void crash();
  // Epoch fencing: a stale primary that learns a higher-epoch leader exists
  // silences itself — feed muted, accepts refused, live legs closed so
  // clients re-home — but its books stay intact for post-mortem parity.
  void fence();
  [[nodiscard]] bool fenced() const noexcept { return fenced_; }

  // Replication-parity digest: session-store rows + order-id allocator +
  // full book content, folded in deterministic (slot/config) order. Equal
  // digests mean the pair would serve identical state from here on.
  [[nodiscard]] std::uint64_t state_digest() const;
  // Economic digest for failover-vs-control parity: per-symbol sorted
  // (side, price, quantity) book tuples. Excludes exchange order ids —
  // resubmitted orders draw fresh ids (and may lose time priority), but the
  // surviving economic book must match a rig that never failed.
  [[nodiscard]] std::uint64_t econ_digest() const;

  // Registers feed/order-flow/session gauges under "<prefix>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  class FeedListener;
  struct Connection;  // one accepted connection (physical: TCP or direct)
  struct Unit;

  void publish(const proto::pitch::Message& message, std::uint8_t unit);
  void schedule_flush(std::uint8_t unit);
  void notify_fill(const book::Execution& execution);
  void snapshot_tick();
  void heartbeat_tick();
  void check_liveness(Connection& conn, sim::Time now);
  // Declares a leg dead and closes it; a session bound to it dies with it.
  // The liveness timeout and an undecodable frame both end here.
  void drop_leg(Connection& conn);
  void on_accept_session(net::TcpEndpoint& endpoint);
  void on_session_message(Connection& conn, const proto::boe::Message& message);
  void handle_login(Connection& conn, const proto::boe::LoginRequest& login);
  void handle_replay(Connection& conn, const proto::boe::ReplayRequest& request);
  void handle_new_order(std::uint32_t session, const proto::boe::NewOrder& request);
  void handle_cancel(std::uint32_t session, const proto::boe::CancelOrder& request);
  void handle_modify(std::uint32_t session, const proto::boe::ModifyOrder& request);
  // Declares the session dead: unbinds its connection and, when
  // cancel_on_disconnect is set, pulls its resting orders (feed deletes +
  // journaled OrderCancelled responses).
  void declare_session_dead(std::uint32_t session);
  // Unsequenced session-level send (logins, heartbeats, SequenceReset):
  // carries seq 0 and is never journaled or replayed.
  void send_conn(Connection& conn, const proto::boe::Message& message);
  // Sequenced application send: consumes the session's tx_seq, stages the
  // encoded bytes in the shared journal ring, and transmits only while the
  // session has a live established connection.
  void send_app(std::uint32_t session, const proto::boe::Message& message);
  // Transport-agnostic byte push: TcpEndpoint::send or on_direct_bytes.
  void send_bytes(Connection& conn, std::span<const std::byte> bytes);
  // Severs the remote leg: TCP close or on_direct_closed notification.
  void close_leg(Connection& conn);
  void link_unbound(Connection& conn) noexcept;
  void unlink_unbound(Connection& conn) noexcept;
  // Commits staged journal entries after the current event cascade (one
  // group flush per instant, like the feed flush).
  void schedule_journal_flush();
  // Exchange-local clock in picos: the engine's, unless an apply_replicated_*
  // call has pinned it to the primary's admission instant.
  [[nodiscard]] std::int64_t now_ps() const noexcept {
    return replicated_now_ps_ >= 0 ? replicated_now_ps_ : engine_.now().picos();
  }
  void halt_connections();
  [[nodiscard]] std::uint32_t now_seconds() const noexcept;
  [[nodiscard]] std::uint32_t now_offset_ns() const noexcept;

  sim::Scheduler& engine_;
  ExchangeConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* feed_nic_ = nullptr;
  net::Nic* order_nic_ = nullptr;
  std::unique_ptr<net::NetStack> feed_stack_;
  std::unique_ptr<net::NetStack> order_stack_;

  std::vector<std::unique_ptr<Unit>> units_;
  std::unordered_map<proto::Symbol, std::unique_ptr<book::OrderBook>> books_;
  std::unordered_map<proto::Symbol, std::unique_ptr<FeedListener>> listeners_;
  std::unordered_map<proto::Symbol, proto::InstrumentKind> kinds_;
  // Dense symbol handles: the session hot path stores u16 indexes instead
  // of 6-byte symbols and resolves books through one vector load.
  std::unordered_map<proto::Symbol, std::uint16_t> symbol_idx_;
  std::vector<book::OrderBook*> book_ptrs_;

  // Connections live for the exchange's lifetime (dead ones stay as
  // post-mortem records) so in-flight matcher events can never dangle.
  std::vector<std::unique_ptr<Connection>> connections_;
  // Intrusive list of live connections not yet bound to a session: the
  // sharded liveness sweep walks these every tick (bound sessions are
  // swept via the store's per-shard connected lists).
  std::uint32_t unbound_head_ = SessionStore::kNullSlot;
  std::uint32_t unbound_tail_ = SessionStore::kNullSlot;

  // All per-session, per-order and journal state, pooled (SoA slabs).
  SessionStore store_;
  proto::OrderId next_order_id_ = 1'000'000'000ULL;

  // Hot-path scratch (reserved once, reused per message/sweep).
  std::vector<std::byte> scratch_tx_;
  std::vector<proto::OrderId> scratch_cod_ids_;
  std::vector<std::uint32_t> scratch_sweep_;
  bool journal_flush_scheduled_ = false;
  std::uint32_t sweep_cursor_ = 0;

  ExchangeStats stats_;
  bool snapshots_running_ = false;
  std::uint64_t snapshots_published_ = 0;
  bool heartbeats_running_ = false;

  // --- hot-standby replication & failover state ---
  InputListener* input_listener_ = nullptr;
  bool feed_muted_ = false;
  bool accepting_ = true;
  bool halted_ = false;  // crashed or fenced: every activity source returns early
  bool fenced_ = false;
  std::int64_t replicated_now_ps_ = -1;  // <0: use the engine clock
};

}  // namespace tsn::exchange
