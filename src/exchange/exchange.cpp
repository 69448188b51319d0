#include "exchange/exchange.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "telemetry/trace.hpp"

namespace tsn::exchange {

namespace {

constexpr std::int64_t kPicosPerSecond = 1'000'000'000'000;

}  // namespace

// Per-feed-unit packing state.
struct Exchange::Unit {
  Unit(Exchange& owner, std::uint8_t index, net::Ipv4Addr group, net::Ipv4Addr group_b,
       std::size_t mtu)
      : group_(group),
        group_b_(group_b),
        builder_(index, mtu, [this, &owner](std::vector<std::byte> payload,
                                            const proto::pitch::UnitHeader& header) {
          if (owner.feed_muted_) {
            // Hot standby: the datagram is fully built (message sequences
            // advanced) but never transmitted. At promotion the unmuted
            // builder continues the stream exactly where the primary's left
            // off, so A/B consumers see one continuous feed.
            ++owner.stats_.feed_datagrams_muted;
            (void)header;
            return;
          }
          owner.feed_stack_->send_multicast(group_, owner.config_.feed_port, payload);
          ++owner.stats_.feed_datagrams;
          if (owner.config_.dual_publish) {
            // The B line carries the exact same bytes (same unit, same
            // sequence) on a second group: path redundancy, not content.
            owner.feed_stack_->send_multicast(group_b_, owner.config_.feed_port, payload);
            ++owner.stats_.feed_datagrams_b;
          }
          (void)header;
        }) {}

  net::Ipv4Addr group_;
  net::Ipv4Addr group_b_;
  proto::pitch::FrameBuilder builder_;
  bool flush_scheduled = false;
  std::uint32_t last_time_second = 0xffffffff;
};

// One accepted connection: the physical leg of a session — a TcpEndpoint
// for real legs, a DirectClient for in-process population-scale legs. A
// session outlives its connections — each reconnect binds a fresh
// Connection to the same pooled session row. All logical session state
// (journal, open orders, dedupe, tx_seq) lives in the SessionStore.
struct Exchange::Connection {
  net::TcpEndpoint* endpoint = nullptr;  // null for direct connections
  DirectClient* direct = nullptr;
  std::uint32_t index = 0;  // position in connections_
  proto::boe::StreamParser parser;
  sim::Time last_rx;
  // Declared dead (timeout or transport death). Bytes and in-flight matcher
  // events for a dead connection are dropped; the object stays alive as a
  // post-mortem record so scheduled closures can never dangle.
  bool dead = false;
  std::uint32_t session = SessionStore::kNullSlot;  // store slot, bound at login
  // Links for the unbound-live-connections sweep list.
  std::uint32_t live_prev = SessionStore::kNullSlot;
  std::uint32_t live_next = SessionStore::kNullSlot;
  bool in_unbound_list = false;
};

// Converts book events for one symbol into feed messages and fills.
class Exchange::FeedListener final : public book::BookListener {
 public:
  FeedListener(Exchange& exchange, proto::Symbol symbol, std::uint8_t unit)
      : exchange_(exchange), symbol_(symbol), unit_(unit) {}

  void on_accept(const book::Order& order) override {
    proto::pitch::AddOrder m;
    m.time_offset_ns = exchange_.now_offset_ns();
    m.order_id = order.id;
    m.side = order.side;
    m.quantity = order.quantity;
    m.symbol = symbol_;
    m.price = order.price;
    exchange_.publish(m, unit_);
  }

  void on_execute(const book::Execution& execution) override {
    proto::pitch::OrderExecuted m;
    m.time_offset_ns = exchange_.now_offset_ns();
    m.order_id = execution.resting_id;
    m.executed_quantity = execution.quantity;
    m.execution_id = execution.exec_id;
    exchange_.publish(m, unit_);
    exchange_.notify_fill(execution);
  }

  void on_reduce(proto::OrderId order_id, book::Quantity cancelled) override {
    proto::pitch::ReduceSize m;
    m.time_offset_ns = exchange_.now_offset_ns();
    m.order_id = order_id;
    m.cancelled_quantity = cancelled;
    exchange_.publish(m, unit_);
  }

  void on_delete(proto::OrderId order_id) override {
    proto::pitch::DeleteOrder m;
    m.time_offset_ns = exchange_.now_offset_ns();
    m.order_id = order_id;
    exchange_.publish(m, unit_);
  }

  void on_replace(proto::OrderId order_id, book::Quantity /*new_quantity*/,
                  book::Price /*new_price*/) override {
    // A replace leaves the book and re-enters as a fresh order (losing
    // priority, possibly matching). On the feed that is a delete; the
    // matching engine's subsequent on_execute/on_accept events describe
    // what the re-entry did. Publishing a ModifyOrder *and* a later
    // AddOrder would double-count the order at every consumer.
    proto::pitch::DeleteOrder m;
    m.time_offset_ns = exchange_.now_offset_ns();
    m.order_id = order_id;
    exchange_.publish(m, unit_);
  }

 private:
  Exchange& exchange_;
  proto::Symbol symbol_;
  std::uint8_t unit_;
};

Exchange::Exchange(sim::Scheduler& engine, ExchangeConfig config)
    : engine_(engine),
      config_(std::move(config)),
      store_(SessionStoreConfig{config_.session_shards}) {
  if (!config_.feed_partitioning) {
    throw std::invalid_argument{"exchange requires a feed partitioning scheme"};
  }
  if (config_.feed_partitioning->partition_count() > 250) {
    throw std::invalid_argument{"at most 250 feed units"};
  }
  host_ = std::make_unique<net::Host>(engine_, config_.name, sim::micros(std::int64_t{1}));
  feed_nic_ = &host_->add_nic("feed", config_.feed_mac, config_.feed_ip);
  order_nic_ = &host_->add_nic("orders", config_.order_mac, config_.order_ip);
  feed_stack_ = std::make_unique<net::NetStack>(*feed_nic_);
  order_stack_ = std::make_unique<net::NetStack>(*order_nic_);

  const auto units = static_cast<std::uint8_t>(config_.feed_partitioning->partition_count());
  units_.reserve(units);
  for (std::uint8_t u = 0; u < units; ++u) {
    units_.push_back(std::make_unique<Unit>(*this, u, unit_group(u), unit_group_b(u),
                                            config_.feed_mtu_payload));
  }

  for (const auto& spec : config_.symbols) {
    const std::uint8_t unit =
        static_cast<std::uint8_t>(config_.feed_partitioning->partition_of(spec.symbol, spec.kind));
    auto listener = std::make_unique<FeedListener>(*this, spec.symbol, unit);
    auto book = std::make_unique<book::OrderBook>(spec.symbol, listener.get());
    // Pre-warm the SoA slabs at startup so the first burst of resting
    // orders never pays mid-update slab growth.
    book->reserve(1'024, 128);
    symbol_idx_.emplace(spec.symbol, static_cast<std::uint16_t>(book_ptrs_.size()));
    book_ptrs_.push_back(book.get());
    books_.emplace(spec.symbol, std::move(book));
    listeners_.emplace(spec.symbol, std::move(listener));
    kinds_.emplace(spec.symbol, spec.kind);
  }

  if (config_.expected_sessions > 0) {
    store_.reserve(config_.expected_sessions, config_.expected_open_orders,
                   config_.expected_journal_bytes);
    connections_.reserve(config_.expected_sessions + 16);
    scratch_sweep_.reserve(
        (2 * config_.expected_sessions) / std::max<std::uint32_t>(1, store_.shard_count()) + 16);
  }
  scratch_tx_.reserve(64);
  scratch_cod_ids_.reserve(64);

  order_stack_->listen_tcp(config_.order_port,
                           [this](net::TcpEndpoint& endpoint) { on_accept_session(endpoint); });
}

Exchange::~Exchange() = default;

std::uint8_t Exchange::unit_count() const noexcept {
  return static_cast<std::uint8_t>(units_.size());
}

net::Ipv4Addr Exchange::unit_group(std::uint8_t unit) const noexcept {
  return net::Ipv4Addr{config_.feed_group_base.value() + unit};
}

std::uint8_t Exchange::unit_of(const proto::Symbol& symbol) const {
  const auto kind_it = kinds_.find(symbol);
  const auto kind = kind_it == kinds_.end() ? proto::InstrumentKind::kEquity : kind_it->second;
  return static_cast<std::uint8_t>(config_.feed_partitioning->partition_of(symbol, kind));
}

book::OrderBook& Exchange::book(const proto::Symbol& symbol) {
  auto it = books_.find(symbol);
  if (it == books_.end()) throw std::out_of_range{"symbol not listed: " + symbol.str()};
  return *it->second;
}

bool Exchange::lists(const proto::Symbol& symbol) const noexcept {
  return books_.contains(symbol);
}

std::uint32_t Exchange::now_seconds() const noexcept {
  return static_cast<std::uint32_t>(now_ps() / kPicosPerSecond);
}

std::uint32_t Exchange::now_offset_ns() const noexcept {
  return static_cast<std::uint32_t>((now_ps() % kPicosPerSecond) / 1000);
}

void Exchange::publish(const proto::pitch::Message& message, std::uint8_t unit_index) {
  Unit& unit = *units_.at(unit_index);
  const std::uint32_t second = now_seconds();
  if (unit.last_time_second != second) {
    unit.last_time_second = second;
    unit.builder_.append(proto::pitch::Time{second});
    ++stats_.feed_messages;
  }
  unit.builder_.append(message);
  ++stats_.feed_messages;
  schedule_flush(unit_index);
}

void Exchange::schedule_flush(std::uint8_t unit_index) {
  Unit& unit = *units_.at(unit_index);
  if (unit.flush_scheduled) return;
  unit.flush_scheduled = true;
  // Runs after every event at the current instant: same-instant messages
  // pack into one datagram, quiet-period messages go out alone.
  engine_.schedule_in(sim::Duration::zero(), [this, unit_index] {
    Unit& u = *units_.at(unit_index);
    u.flush_scheduled = false;
    if (halted_) return;  // a crashed/fenced process emits nothing further
    // Each feed datagram flush is a trace origin: the datagram (and every
    // frame replicated from it downstream) carries a fresh trace id, so a
    // tick-to-trade chain can be reconstructed hop by hop.
    if (auto* s = telemetry::sink()) {
      telemetry::TraceScope scope{s->begin_trace(engine_.now())};
      u.builder_.flush();
    } else {
      u.builder_.flush();
    }
  });
}

void Exchange::start_snapshots() {
  if (snapshots_running_) return;
  if (config_.snapshot_interval <= sim::Duration::zero()) {
    throw std::invalid_argument{"snapshot_interval must be positive"};
  }
  snapshots_running_ = true;
  engine_.schedule_in(config_.snapshot_interval, [this] { snapshot_tick(); });
}

void Exchange::snapshot_tick() {
  if (halted_) return;  // stops the cycle; nothing reschedules it
  // One snapshot cycle per unit: begin (with the live resume point), the
  // unit's resting orders, end. Each cycle rides its own datagrams on the
  // snapshot group so receivers never confuse it with the live stream.
  for (std::uint8_t u = 0; u < unit_count(); ++u) {
    proto::pitch::FrameBuilder builder{
        u, config_.feed_mtu_payload,
        [this, u](std::vector<std::byte> payload, const proto::pitch::UnitHeader&) {
          feed_stack_->send_multicast(snapshot_group(u), config_.snapshot_port, payload);
        }};
    builder.append(proto::pitch::SnapshotBegin{u, units_[u]->builder_.next_sequence()});
    std::uint32_t order_count = 0;
    for (const auto& spec : config_.symbols) {
      if (unit_of(spec.symbol) != u) continue;
      books_.at(spec.symbol)->for_each_order([&](const book::Order& order) {
        proto::pitch::AddOrder add;
        add.time_offset_ns = now_offset_ns();
        add.order_id = order.id;
        add.side = order.side;
        add.quantity = order.quantity;
        add.symbol = spec.symbol;
        add.price = order.price;
        builder.append(proto::pitch::Message{add});
        ++order_count;
      });
    }
    builder.append(proto::pitch::SnapshotEnd{u, order_count});
    builder.flush();
    ++snapshots_published_;
  }
  engine_.schedule_in(config_.snapshot_interval, [this] { snapshot_tick(); });
}

void Exchange::start_heartbeats() {
  if (heartbeats_running_) return;
  if (config_.heartbeat_interval <= sim::Duration::zero()) {
    throw std::invalid_argument{"heartbeat_interval must be positive"};
  }
  if (config_.session_timeout <= sim::Duration::zero()) {
    config_.session_timeout = config_.heartbeat_interval * 3;
  }
  heartbeats_running_ = true;
  engine_.schedule_in(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void Exchange::drop_leg(Connection& conn) {
  // Cancel-on-disconnect (when enabled) pulls the bound session's resting
  // orders and journals the cancels for replay at re-login.
  conn.dead = true;
  if (conn.in_unbound_list) unlink_unbound(conn);
  close_leg(conn);
  if (conn.session != SessionStore::kNullSlot && store_.conn(conn.session) == conn.index) {
    declare_session_dead(conn.session);
  }
}

void Exchange::check_liveness(Connection& conn, sim::Time now) {
  const auto idle = now - conn.last_rx;
  if (idle > config_.session_timeout) {
    // A dead counterparty.
    ++stats_.sessions_timed_out;
    drop_leg(conn);
    return;
  }
  if (idle > config_.heartbeat_interval) {
    send_conn(conn, proto::boe::Heartbeat{});
    ++stats_.heartbeats_sent;
  }
}

void Exchange::heartbeat_tick() {
  if (halted_) return;  // stops liveness sweeps; nothing reschedules them
  const sim::Time now = engine_.now();
  if (!config_.sharded_liveness_sweep) {
    // Legacy sweep: every connection, every tick — PR 5's exact semantics.
    for (auto& conn : connections_) {
      if (conn->dead) continue;
      if (conn->endpoint != nullptr && conn->endpoint->state() != net::TcpState::kEstablished) {
        continue;
      }
      check_liveness(*conn, now);
    }
  } else {
    // O(shard) sweep: pre-login legs every tick (they are few and
    // short-lived), bound sessions one directory shard per tick in bind
    // order. Collect first — a timeout kill unbinds mid-walk.
    for (std::uint32_t ci = unbound_head_; ci != SessionStore::kNullSlot;) {
      Connection& conn = *connections_[ci];
      ci = conn.live_next;  // the kill path unlinks `conn`
      if (conn.dead) continue;
      if (conn.endpoint != nullptr && conn.endpoint->state() != net::TcpState::kEstablished) {
        continue;
      }
      check_liveness(conn, now);
    }
    const std::uint32_t shard = sweep_cursor_++ & (store_.shard_count() - 1);
    scratch_sweep_.clear();
    store_.for_each_connected(shard,
                              [this](std::uint32_t slot) { scratch_sweep_.push_back(slot); });
    for (const std::uint32_t slot : scratch_sweep_) {
      const std::uint32_t ci = store_.conn(slot);
      if (ci == SessionStore::kNullSlot) continue;
      Connection& conn = *connections_[ci];
      if (conn.dead) continue;
      if (conn.endpoint != nullptr && conn.endpoint->state() != net::TcpState::kEstablished) {
        continue;
      }
      check_liveness(conn, now);
    }
  }
  engine_.schedule_in(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void Exchange::register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
  registry.gauge(prefix + ".feed_messages",
                 [this] { return static_cast<double>(stats_.feed_messages); });
  registry.gauge(prefix + ".feed_datagrams",
                 [this] { return static_cast<double>(stats_.feed_datagrams); });
  registry.gauge(prefix + ".feed_datagrams_b",
                 [this] { return static_cast<double>(stats_.feed_datagrams_b); });
  registry.gauge(prefix + ".feed_datagrams_muted",
                 [this] { return static_cast<double>(stats_.feed_datagrams_muted); });
  registry.gauge(prefix + ".orders_received",
                 [this] { return static_cast<double>(stats_.orders_received); });
  registry.gauge(prefix + ".orders_accepted",
                 [this] { return static_cast<double>(stats_.orders_accepted); });
  registry.gauge(prefix + ".orders_rejected",
                 [this] { return static_cast<double>(stats_.orders_rejected); });
  registry.gauge(prefix + ".cancels_received",
                 [this] { return static_cast<double>(stats_.cancels_received); });
  registry.gauge(prefix + ".cancel_rejects",
                 [this] { return static_cast<double>(stats_.cancel_rejects); });
  registry.gauge(prefix + ".fills_sent", [this] { return static_cast<double>(stats_.fills_sent); });
  registry.gauge(prefix + ".heartbeats_sent",
                 [this] { return static_cast<double>(stats_.heartbeats_sent); });
  registry.gauge(prefix + ".sessions_timed_out",
                 [this] { return static_cast<double>(stats_.sessions_timed_out); });
  registry.gauge(prefix + ".sessions_resumed",
                 [this] { return static_cast<double>(stats_.sessions_resumed); });
  registry.gauge(prefix + ".sessions_taken_over",
                 [this] { return static_cast<double>(stats_.sessions_taken_over); });
  registry.gauge(prefix + ".replays_served",
                 [this] { return static_cast<double>(stats_.replays_served); });
  registry.gauge(prefix + ".replayed_messages",
                 [this] { return static_cast<double>(stats_.replayed_messages); });
  registry.gauge(prefix + ".cod_sessions",
                 [this] { return static_cast<double>(stats_.cod_sessions); });
  registry.gauge(prefix + ".cod_orders_cancelled",
                 [this] { return static_cast<double>(stats_.cod_orders_cancelled); });
  registry.gauge(prefix + ".duplicate_client_ids_rejected",
                 [this] { return static_cast<double>(stats_.duplicate_client_ids_rejected); });
  registry.gauge(prefix + ".snapshots_published",
                 [this] { return static_cast<double>(snapshots_published_); });
  registry.gauge(prefix + ".sessions_live",
                 [this] { return static_cast<double>(store_.session_count()); });
  registry.gauge(prefix + ".session_open_orders",
                 [this] { return static_cast<double>(store_.open_orders_total()); });
  registry.gauge(prefix + ".journal_appends",
                 [this] { return static_cast<double>(store_.stats().journal_appends); });
  registry.gauge(prefix + ".journal_flushes",
                 [this] { return static_cast<double>(store_.stats().journal_flushes); });
  registry.gauge(prefix + ".journal_bytes",
                 [this] { return static_cast<double>(store_.stats().journal_bytes); });
}

// tsn-lint: hotpath
void Exchange::notify_fill(const book::Execution& execution) {
  struct Leg {
    proto::OrderId exchange_id;
    proto::Quantity remaining;
  };
  const Leg legs[2] = {{execution.resting_id, execution.resting_remaining},
                       {execution.aggressive_id, execution.aggressive_remaining}};
  for (const Leg& leg : legs) {
    const std::uint32_t order = store_.find_by_exchange(leg.exchange_id);
    if (order == SessionStore::kNullSlot) continue;  // background-driver order
    const std::uint32_t session = store_.order_session(order);
    proto::boe::Fill fill;
    fill.client_order_id = store_.order_client_id(order);
    fill.execution_id = execution.exec_id;
    fill.quantity = execution.quantity;
    fill.price = execution.price;
    fill.leaves_quantity = leg.remaining;
    send_app(session, fill);
    ++stats_.fills_sent;
    if (leg.remaining == 0) store_.close_order(order);
  }
}

void Exchange::link_unbound(Connection& conn) noexcept {
  conn.live_prev = unbound_tail_;
  conn.live_next = SessionStore::kNullSlot;
  if (unbound_tail_ != SessionStore::kNullSlot) {
    connections_[unbound_tail_]->live_next = conn.index;
  } else {
    unbound_head_ = conn.index;
  }
  unbound_tail_ = conn.index;
  conn.in_unbound_list = true;
}

void Exchange::unlink_unbound(Connection& conn) noexcept {
  if (!conn.in_unbound_list) return;
  if (conn.live_prev != SessionStore::kNullSlot) {
    connections_[conn.live_prev]->live_next = conn.live_next;
  } else {
    unbound_head_ = conn.live_next;
  }
  if (conn.live_next != SessionStore::kNullSlot) {
    connections_[conn.live_next]->live_prev = conn.live_prev;
  } else {
    unbound_tail_ = conn.live_prev;
  }
  conn.live_prev = SessionStore::kNullSlot;
  conn.live_next = SessionStore::kNullSlot;
  conn.in_unbound_list = false;
}

void Exchange::close_leg(Connection& conn) {
  if (conn.endpoint != nullptr) {
    conn.endpoint->close();
  } else if (conn.direct != nullptr) {
    conn.direct->on_direct_closed(conn.index);
  }
}

void Exchange::send_bytes(Connection& conn, std::span<const std::byte> bytes) {
  if (conn.endpoint != nullptr) {
    conn.endpoint->send(bytes);
  } else {
    conn.direct->on_direct_bytes(conn.index, bytes);
  }
}

std::uint32_t Exchange::open_direct(DirectClient& client) {
  auto conn = std::make_unique<Connection>();
  conn->direct = &client;
  conn->index = static_cast<std::uint32_t>(connections_.size());
  conn->last_rx = engine_.now();
  connections_.push_back(std::move(conn));
  link_unbound(*connections_.back());
  return connections_.back()->index;
}

void Exchange::deliver_direct(std::uint32_t conn, const proto::boe::Message& message) {
  Connection& c = *connections_.at(conn);
  if (c.dead) return;
  c.last_rx = engine_.now();
  // Same matcher latency as the TCP path; dead-leg drop re-checked at the
  // matcher instant so post-mortem messages can never act.
  engine_.schedule_in(config_.matching_latency, [this, conn, message] {
    Connection& cc = *connections_[conn];
    if (cc.dead) return;
    on_session_message(cc, message);
  });
}

void Exchange::close_direct(std::uint32_t conn) {
  Connection& c = *connections_.at(conn);
  if (c.dead) return;
  c.dead = true;
  if (c.in_unbound_list) unlink_unbound(c);
  if (c.session != SessionStore::kNullSlot && store_.conn(c.session) == c.index) {
    declare_session_dead(c.session);
  }
}

void Exchange::on_accept_session(net::TcpEndpoint& endpoint) {
  if (halted_ || !accepting_) {
    // A dead process's kernel (or a fenced/following standby) refuses the
    // session: FIN right back so the gateway fails over to its next
    // endpoint instead of waiting out a timeout.
    endpoint.close();
    return;
  }
  auto conn = std::make_unique<Connection>();
  conn->endpoint = &endpoint;
  conn->index = static_cast<std::uint32_t>(connections_.size());
  conn->last_rx = engine_.now();
  Connection* raw = conn.get();
  connections_.push_back(std::move(conn));
  link_unbound(*raw);
  endpoint.set_data_handler([this, raw](std::span<const std::byte> bytes, sim::Time arrival) {
    if (raw->dead) return;  // post-mortem bytes from an already-dead leg
    raw->last_rx = engine_.now();
    raw->parser.feed(bytes);
    while (auto decoded = raw->parser.next()) {
      // Matching-engine latency separates wire arrival from book action.
      const proto::boe::Message message = decoded->message;
      const telemetry::TraceId trace = telemetry::current_trace();
      engine_.schedule_in(config_.matching_latency, [this, raw, message, trace, arrival] {
        // Deliberately no ambient TraceScope here: the matcher is the end
        // of the tick-to-trade chain, so responses and the feed events the
        // match produces are not stamped with the inbound order's trace
        // (feed flushes start traces of their own).
        if (raw->dead) return;  // declared dead while this was in flight
        on_session_message(*raw, message);
        telemetry::record_span(trace, config_.name, telemetry::SpanKind::kMatcher, arrival,
                               engine_.now());
      });
    }
    // A torn stream or a whole frame that does not decode: nothing later on
    // this leg can be trusted, so the leg goes the way of a dead one.
    if (raw->parser.broken()) drop_leg(*raw);
  });
  endpoint.set_closed_handler([this, raw](net::TcpCloseReason) {
    if (raw->dead) return;
    raw->dead = true;
    if (raw->in_unbound_list) unlink_unbound(*raw);
    if (raw->session != SessionStore::kNullSlot && store_.conn(raw->session) == raw->index) {
      declare_session_dead(raw->session);
    }
  });
}

void Exchange::send_conn(Connection& conn, const proto::boe::Message& message) {
  scratch_tx_.clear();
  proto::boe::encode_into(message, 0, scratch_tx_);
  send_bytes(conn, scratch_tx_);
}

// tsn-lint: hotpath
void Exchange::send_app(std::uint32_t session, const proto::boe::Message& message) {
  const std::uint32_t seq = store_.next_seq(session);
  scratch_tx_.clear();
  proto::boe::encode_into(message, seq, scratch_tx_);
  const std::uint32_t ci = store_.conn(session);
  if (ci != SessionStore::kNullSlot) {
    Connection& conn = *connections_[ci];
    if (!conn.dead &&
        (conn.endpoint == nullptr || conn.endpoint->state() == net::TcpState::kEstablished)) {
      send_bytes(conn, scratch_tx_);
    }
  }
  store_.journal_stage(session, seq, scratch_tx_);
  schedule_journal_flush();
}

void Exchange::schedule_journal_flush() {
  if (journal_flush_scheduled_) return;
  journal_flush_scheduled_ = true;
  // Runs after the current event cascade: every message staged at this
  // instant — across all sessions — commits in one arena append.
  engine_.schedule_in(sim::Duration::zero(), [this] {
    journal_flush_scheduled_ = false;
    store_.journal_flush();
  });
}

void Exchange::declare_session_dead(std::uint32_t session) {
  // Replicate the death verdict itself (not the cancels it causes): the
  // backup runs the same deterministic sweep and journals the same bytes.
  if (input_listener_ != nullptr) {
    input_listener_->on_admitted_session_dead(store_.session_id(session));
  }
  store_.set_logged_in(session, false);
  const std::uint32_t ci = store_.conn(session);
  if (ci != SessionStore::kNullSlot) {
    connections_[ci]->dead = true;
    store_.unbind(session);
  }
  if (!config_.cancel_on_disconnect || store_.open_order_count(session) == 0) return;
  ++stats_.cod_sessions;
  // Sorted sweep: the feed deletes + journaled cancels this emits must be
  // byte-identical across replays of the same seed, independent of the
  // order chain's (insertion-history-dependent) layout.
  store_.collect_open_client_ids(session, scratch_cod_ids_);
  for (const proto::OrderId client_id : scratch_cod_ids_) {
    const std::uint32_t order = store_.find_open(session, client_id);
    if (order == SessionStore::kNullSlot) continue;
    // cancel() fires the book listener, which publishes the DeleteOrder
    // on the feed — disconnect-driven pulls are market data like any
    // other cancel.
    const auto cancelled =
        book_ptrs_[store_.order_symbol(order)]->cancel(store_.order_exchange_id(order));
    if (cancelled) {
      send_app(session, proto::boe::OrderCancelled{client_id, *cancelled});
      ++stats_.cod_orders_cancelled;
    }
    store_.close_order(order);
  }
}

void Exchange::on_session_message(Connection& conn, const proto::boe::Message& message) {
  using namespace proto::boe;
  if (const auto* login = std::get_if<LoginRequest>(&message)) {
    handle_login(conn, *login);
    return;
  }
  if (std::get_if<Heartbeat>(&message) != nullptr) {
    return;  // liveness only: the data handler already refreshed the timer
  }
  if (std::get_if<Logout>(&message) != nullptr) {
    if (conn.session != SessionStore::kNullSlot) {
      if (input_listener_ != nullptr) {
        input_listener_->on_admitted_message(store_.session_id(conn.session), message);
      }
      store_.set_logged_in(conn.session, false);
    }
    return;
  }
  if (const auto* replay = std::get_if<ReplayRequest>(&message)) {
    handle_replay(conn, *replay);
    return;
  }
  if (const auto* order = std::get_if<NewOrder>(&message)) {
    if (conn.session == SessionStore::kNullSlot) {
      ++stats_.orders_received;
      ++stats_.orders_rejected;
      send_conn(conn, OrderRejected{order->client_order_id, RejectReason::kNotLoggedIn});
      return;
    }
    if (input_listener_ != nullptr) {
      input_listener_->on_admitted_message(store_.session_id(conn.session), message);
    }
    handle_new_order(conn.session, *order);
    return;
  }
  if (const auto* cancel = std::get_if<CancelOrder>(&message)) {
    if (conn.session == SessionStore::kNullSlot) {
      ++stats_.cancels_received;
      ++stats_.cancel_rejects;
      send_conn(conn, CancelRejected{cancel->client_order_id, RejectReason::kTooLateToCancel});
      return;
    }
    if (input_listener_ != nullptr) {
      input_listener_->on_admitted_message(store_.session_id(conn.session), message);
    }
    handle_cancel(conn.session, *cancel);
    return;
  }
  if (const auto* modify = std::get_if<ModifyOrder>(&message)) {
    if (conn.session == SessionStore::kNullSlot) {
      send_conn(conn, CancelRejected{modify->client_order_id, RejectReason::kUnknownOrder});
      return;
    }
    if (input_listener_ != nullptr) {
      input_listener_->on_admitted_message(store_.session_id(conn.session), message);
    }
    handle_modify(conn.session, *modify);
    return;
  }
  // Exchange-to-client message types arriving inbound are protocol errors;
  // ignore them (a production gateway would reset the session).
}

void Exchange::handle_login(Connection& conn, const proto::boe::LoginRequest& login) {
  using namespace proto::boe;
  if (login.token == 0) {
    send_conn(conn, LoginRejected{RejectReason::kNotLoggedIn});
    return;
  }
  const auto result = store_.login(login.session_id, login.token);
  if (result.verdict == LoginVerdict::kInUse) {
    send_conn(conn, LoginRejected{RejectReason::kSessionInUse});
    return;
  }
  const std::uint32_t session = result.slot;
  if (result.verdict == LoginVerdict::kMatch) {
    const std::uint32_t cur = store_.conn(session);
    if (cur == conn.index) {
      // Duplicate login on the same connection: idempotent.
      send_conn(conn, LoginAccepted{});
      return;
    }
    if (cur != SessionStore::kNullSlot && !connections_[cur]->dead) {
      // Same credentials on a new connection while the old one still looks
      // alive: the client knows its old leg is gone even if we don't yet
      // (e.g. it aborted without a FIN). Take the session over — crucially
      // WITHOUT cancel-on-disconnect, since the session never died.
      Connection& old = *connections_[cur];
      old.dead = true;
      old.session = SessionStore::kNullSlot;
      store_.unbind(session);
      close_leg(old);
      ++stats_.sessions_taken_over;
    } else {
      if (cur != SessionStore::kNullSlot) store_.unbind(session);
      ++stats_.sessions_resumed;
    }
  }
  conn.session = session;
  if (conn.in_unbound_list) unlink_unbound(conn);
  store_.bind(session, conn.index);
  store_.set_logged_in(session, true);
  // Every successful admission (first login, resume, takeover) replicates:
  // the backup mirrors the row creation / logged-in transition. The
  // idempotent duplicate-login return above changes no state and is not
  // replicated.
  if (input_listener_ != nullptr) {
    input_listener_->on_admitted_login(login.session_id, login.token);
  }
  send_conn(conn, LoginAccepted{});
}

void Exchange::handle_replay(Connection& conn, const proto::boe::ReplayRequest& request) {
  using namespace proto::boe;
  if (conn.session == SessionStore::kNullSlot) return;  // replay without a login
  ++stats_.replays_served;
  // Journal records are chained in send order with ascending seqs:
  // replaying the tail > last_seen_seq re-sends the original bytes
  // verbatim, so the client sees exactly the stream it missed —
  // byte-identical, exactly once.
  store_.replay(conn.session, request.last_seen_seq,
                [this, &conn](std::uint32_t, std::span<const std::byte> bytes) {
                  send_bytes(conn, bytes);
                  ++stats_.replayed_messages;
                });
  send_conn(conn, SequenceReset{store_.tx_seq(conn.session)});
}

// tsn-lint: hotpath
void Exchange::handle_new_order(std::uint32_t session, const proto::boe::NewOrder& request) {
  using namespace proto::boe;
  ++stats_.orders_received;
  auto reject = [&](RejectReason reason) {
    ++stats_.orders_rejected;
    send_app(session, OrderRejected{request.client_order_id, reason});
  };
  if (!store_.logged_in(session)) return reject(RejectReason::kNotLoggedIn);
  const auto symbol_it = symbol_idx_.find(request.symbol);
  if (symbol_it == symbol_idx_.end()) return reject(RejectReason::kInvalidSymbol);
  if (request.quantity == 0) return reject(RejectReason::kInvalidQuantity);
  if (request.price <= 0) return reject(RejectReason::kInvalidPrice);
  if (store_.client_id_used(session, request.client_order_id)) {
    // Live OR terminal: the id was used before. This is what makes
    // resubmission after a reconnect idempotent — a resubmitted order whose
    // original already executed gets a reject, never a second execution.
    ++stats_.duplicate_client_ids_rejected;
    return reject(RejectReason::kDuplicateOrderId);
  }
  const proto::OrderId exchange_id = next_order_id();
  ++stats_.orders_accepted;
  OrderAccepted ack;
  ack.client_order_id = request.client_order_id;
  ack.exchange_order_id = exchange_id;
  ack.transact_time_ns = static_cast<std::uint64_t>(now_ps() / 1000);
  send_app(session, ack);

  store_.register_order(session, request.client_order_id, exchange_id, symbol_it->second);

  auto& target_book = *book_ptrs_[symbol_it->second];
  const book::Order order{exchange_id, request.side, request.price, request.quantity};
  const bool ioc = request.tif == TimeInForce::kImmediateOrCancel;
  const auto outcome = target_book.submit(order, ioc);
  if (outcome.result == book::OrderBook::SubmitResult::kCancelled) {
    // IOC remainder evaporates; tell the client.
    OrderCancelled cancelled;
    cancelled.client_order_id = request.client_order_id;
    cancelled.cancelled_quantity = request.quantity - outcome.filled;
    send_app(session, cancelled);
  }
  // Fully-filled or IOC orders are no longer live. A full fill was already
  // closed by notify_fill inside submit(), hence the re-lookup.
  if (outcome.result == book::OrderBook::SubmitResult::kFilled ||
      outcome.result == book::OrderBook::SubmitResult::kCancelled) {
    const std::uint32_t open = store_.find_open(session, request.client_order_id);
    if (open != SessionStore::kNullSlot) store_.close_order(open);
  }
}

// tsn-lint: hotpath
void Exchange::handle_cancel(std::uint32_t session, const proto::boe::CancelOrder& request) {
  using namespace proto::boe;
  ++stats_.cancels_received;
  const std::uint32_t order = store_.find_open(session, request.client_order_id);
  if (order == SessionStore::kNullSlot) {
    // Unknown or already filled — the §2 cancel/fill race lands here.
    ++stats_.cancel_rejects;
    send_app(session, CancelRejected{request.client_order_id, RejectReason::kTooLateToCancel});
    return;
  }
  auto cancelled =
      book_ptrs_[store_.order_symbol(order)]->cancel(store_.order_exchange_id(order));
  if (!cancelled) {
    ++stats_.cancel_rejects;
    send_app(session, CancelRejected{request.client_order_id, RejectReason::kTooLateToCancel});
    return;
  }
  send_app(session, OrderCancelled{request.client_order_id, *cancelled});
  store_.close_order(order);
}

void Exchange::handle_modify(std::uint32_t session, const proto::boe::ModifyOrder& request) {
  using namespace proto::boe;
  const std::uint32_t order = store_.find_open(session, request.client_order_id);
  if (order == SessionStore::kNullSlot) {
    send_app(session, CancelRejected{request.client_order_id, RejectReason::kUnknownOrder});
    return;
  }
  // replace() can rematch and fully fill via notify_fill, which closes the
  // order row — don't touch `order` after this call.
  if (!book_ptrs_[store_.order_symbol(order)]->replace(store_.order_exchange_id(order),
                                                       request.quantity, request.price)) {
    send_app(session, CancelRejected{request.client_order_id, RejectReason::kUnknownOrder});
    return;
  }
  send_app(session, OrderModified{request.client_order_id, request.quantity, request.price});
}

// --- hot-standby replication & failover ------------------------------------

void Exchange::halt_connections() {
  // Every live leg FINs — for crash() that is the host kernel reaping the
  // dead process's sockets, for fence() a voluntary resignation — so
  // gateways get a fast closed notification and re-home instead of waiting
  // out a session timeout. Deliberately no declare_session_dead: the store
  // and books freeze as-is (a halted matcher cannot run cancel-on-
  // disconnect), keeping the state digest comparable post-mortem.
  for (auto& conn : connections_) {
    if (conn->dead) continue;
    conn->dead = true;
    if (conn->in_unbound_list) unlink_unbound(*conn);
    if (conn->endpoint != nullptr) conn->endpoint->close();
  }
}

void Exchange::crash() {
  if (halted_) return;
  halted_ = true;
  halt_connections();
}

void Exchange::fence() {
  if (halted_) return;
  halted_ = true;
  fenced_ = true;
  feed_muted_ = true;
  accepting_ = false;
  halt_connections();
}

void Exchange::apply_replicated_login(std::uint32_t session_id, std::uint64_t token,
                                      std::int64_t at_ps) {
  replicated_now_ps_ = at_ps;
  const auto result = store_.login(session_id, token);
  if (result.verdict != LoginVerdict::kInUse) store_.set_logged_in(result.slot, true);
  replicated_now_ps_ = -1;
}

void Exchange::apply_replicated_message(std::uint32_t session_id,
                                        const proto::boe::Message& message, std::int64_t at_ps) {
  using namespace proto::boe;
  const std::uint32_t session = store_.lookup(session_id);
  if (session == SessionStore::kNullSlot) return;  // login record lost upstream
  replicated_now_ps_ = at_ps;
  if (std::get_if<Logout>(&message) != nullptr) {
    store_.set_logged_in(session, false);
  } else if (const auto* order = std::get_if<NewOrder>(&message)) {
    handle_new_order(session, *order);
  } else if (const auto* cancel = std::get_if<CancelOrder>(&message)) {
    handle_cancel(session, *cancel);
  } else if (const auto* modify = std::get_if<ModifyOrder>(&message)) {
    handle_modify(session, *modify);
  }
  replicated_now_ps_ = -1;
}

void Exchange::apply_replicated_session_dead(std::uint32_t session_id, std::int64_t at_ps) {
  const std::uint32_t session = store_.lookup(session_id);
  if (session == SessionStore::kNullSlot) return;
  replicated_now_ps_ = at_ps;
  declare_session_dead(session);
  replicated_now_ps_ = -1;
}

std::uint64_t Exchange::state_digest() const {
  book::Fnv1a digest{store_.state_digest()};
  digest.mix(next_order_id_);
  // config_.symbols order is construction order: identical on both halves
  // of a pair built from the same config.
  for (const auto& spec : config_.symbols) {
    const book::OrderBook& b = *books_.at(spec.symbol);
    b.for_each_order([&](const book::Order& order) {
      digest.mix(order.id);
      digest.mix(static_cast<std::uint64_t>(order.side));
      digest.mix(static_cast<std::uint64_t>(order.price));
      digest.mix(order.quantity);
    });
  }
  return digest.hash;
}

std::uint64_t Exchange::econ_digest() const {
  book::Fnv1a digest;
  std::vector<std::tuple<std::uint8_t, std::int64_t, std::uint64_t>> rows;
  for (const auto& spec : config_.symbols) {
    rows.clear();
    books_.at(spec.symbol)->for_each_order([&](const book::Order& order) {
      rows.emplace_back(static_cast<std::uint8_t>(order.side),
                        static_cast<std::int64_t>(order.price), order.quantity);
    });
    // Sorted: a resubmitted order re-enters at the back of its price level,
    // so raw book order differs from a never-failed control — economically
    // equal books must still digest equal.
    std::sort(rows.begin(), rows.end());
    digest.mix(rows.size());
    for (const auto& [side, price, qty] : rows) {
      digest.mix(side);
      digest.mix(static_cast<std::uint64_t>(price));
      digest.mix(qty);
    }
  }
  return digest.hash;
}

}  // namespace tsn::exchange
