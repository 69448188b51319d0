#include "exchange/loadgen.hpp"

#include <algorithm>

#include "book/flat_index.hpp"
#include "core/check.hpp"

namespace tsn::exchange {

namespace {

// Persona mix weights (normalized internally).
constexpr double kSteadyWeight = 0.7;
constexpr double kFlapperWeight = 0.2;
constexpr double kBurstyWeight = 0.1;
constexpr sim::Duration kTick = sim::micros(std::int64_t{100});
constexpr std::uint32_t kFlapIntervalTicks = 512;  // flapper drop cadence
constexpr std::uint32_t kDownTicks = 8;            // reconnect delay after any drop
constexpr std::uint32_t kBurstIntervalTicks = 256;
constexpr std::uint32_t kSessionIdBase = 1'000'000;

}  // namespace

LoadGen::LoadGen(sim::Scheduler& engine, Exchange& exchange, LoadGenConfig config)
    : engine_(engine), exchange_(exchange), config_(config) {
  TSN_ASSERT(config_.sessions > 0, "loadgen needs at least one session");
  TSN_ASSERT(config_.target_open_orders <= kMaxOpen, "target_open_orders above slot capacity");
  TSN_ASSERT(!exchange_.symbols().empty(), "loadgen needs a listed symbol");
  config_.steady_interval_ticks = std::max(1u, config_.steady_interval_ticks);
  config_.logins_per_tick = std::max(1u, config_.logins_per_tick);

  sim::Rng rng(config_.seed);
  const std::array<double, 3> weights{kSteadyWeight, kFlapperWeight, kBurstyWeight};

  sessions_.resize(config_.sessions);
  steady_buckets_.resize(config_.steady_interval_ticks);
  flap_buckets_.resize(kFlapIntervalTicks);
  burst_buckets_.resize(kBurstIntervalTicks);

  const auto& specs = exchange_.symbols();
  for (std::uint32_t i = 0; i < config_.sessions; ++i) {
    Sess& sess = sessions_[i];
    const SymbolSpec& spec = specs[i % specs.size()];
    sess.symbol = spec.symbol;
    sess.ref_price = spec.reference_price;
    sess.price_salt = static_cast<std::uint32_t>(rng.next_u64());
    sess.persona = static_cast<Persona>(rng.weighted_index(weights));
    // Every session keeps a resting baseline; flappers and bursty algos add
    // their own cadence on top.
    steady_buckets_[rng.next_below(config_.steady_interval_ticks)].push_back(i);
    if (sess.persona == Persona::kFlapper) {
      flap_buckets_[rng.next_below(kFlapIntervalTicks)].push_back(i);
    } else if (sess.persona == Persona::kBursty) {
      burst_buckets_[rng.next_below(kBurstIntervalTicks)].push_back(i);
    }
  }
  conn_to_session_.reserve(config_.sessions + config_.sessions / 8);
  relogin_queue_.reserve(config_.sessions / 4 + 16);
}

void LoadGen::start() {
  if (started_) {
    running_ = true;
    return;
  }
  started_ = true;
  running_ = true;
  engine_.schedule_in(sim::Duration::zero(), [this] { tick(); });
}

void LoadGen::tick() {
  const std::uint32_t t = tick_index_++;

  // 1. Reconnects that have served their down time (FIFO: oldest first).
  while (relogin_head_ < relogin_queue_.size() && relogin_queue_[relogin_head_].second <= t) {
    begin_login(relogin_queue_[relogin_head_].first);
    ++relogin_head_;
  }
  if (relogin_head_ == relogin_queue_.size()) {
    relogin_queue_.clear();
    relogin_head_ = 0;
  }

  // 2. Admission ramp: first-time logins, throttled per tick (reconnects
  // above are not throttled — a storm's whole cohort retries together).
  for (std::uint32_t budget = config_.logins_per_tick;
       budget > 0 && login_cursor_ < config_.sessions; --budget) {
    begin_login(login_cursor_++);
  }

  // 3. Persona cadences — only the sessions whose phase is due this tick.
  for (const std::uint32_t s : steady_buckets_[t % config_.steady_interval_ticks]) {
    if (sessions_[s].state == kReady) rotate(s);
  }
  for (const std::uint32_t s : flap_buckets_[t % kFlapIntervalTicks]) {
    if (sessions_[s].state == kReady) {
      drop(s);
      relogin_queue_.emplace_back(s, tick_index_ + kDownTicks);
    }
  }
  for (const std::uint32_t s : burst_buckets_[t % kBurstIntervalTicks]) {
    for (std::uint32_t n = 0; n < config_.burst_size && sessions_[s].state == kReady; ++n) {
      rotate(s);
    }
  }

  if (running_) engine_.schedule_in(kTick, [this] { tick(); });
}

void LoadGen::begin_login(std::uint32_t session) {
  Sess& sess = sessions_[session];
  if (sess.state == kLoggingIn || sess.state == kReplaying) return;
  if (sess.conn == kNoConn) {
    sess.conn = exchange_.open_direct(*this);
    if (sess.conn >= conn_to_session_.size()) {
      conn_to_session_.resize(sess.conn + 1, kNoSession);
    }
    conn_to_session_[sess.conn] = session;
  }
  sess.state = kLoggingIn;
  ++stats_.logins_sent;
  exchange_.deliver_direct(
      sess.conn, proto::boe::LoginRequest{kSessionIdBase + session, token_of(session)});
}

void LoadGen::drop(std::uint32_t session) {
  Sess& sess = sessions_[session];
  if (sess.conn == kNoConn) return;
  ++stats_.drops;
  if (sess.state == kReady) --ready_count_;
  sess.state = kDown;
  const std::uint32_t conn = sess.conn;
  sess.conn = kNoConn;
  conn_to_session_[conn] = kNoSession;
  exchange_.close_direct(conn);
}

std::uint32_t LoadGen::storm(std::uint32_t count) {
  std::uint32_t dropped = 0;
  for (std::uint32_t s = 0; s < config_.sessions && dropped < count; ++s) {
    if (sessions_[s].state != kReady) continue;
    drop(s);
    sessions_[s].storm_victim = true;
    relogin_queue_.emplace_back(s, tick_index_ + kDownTicks);
    ++dropped;
  }
  if (dropped > 0) {
    storm_started_ = true;
    storm_outstanding_ += dropped;
    storm_started_at_ = engine_.now();
  }
  return dropped;
}

void LoadGen::rotate(std::uint32_t session) {
  Sess& sess = sessions_[session];
  const std::uint32_t in_flight = sess.open_count + sess.unacked_count;
  if (in_flight >= config_.target_open_orders) cancel_oldest(session);
  if (in_flight < kMaxOpen && sess.unacked_count < kMaxOpen) submit(session);
}

void LoadGen::submit(std::uint32_t session) {
  Sess& sess = sessions_[session];
  if (sess.unacked_count >= kMaxOpen || sess.conn == kNoConn) return;
  OpenOrder order;
  order.client_id = fresh_client_id(session);
  order.price = next_price(session);
  order.quantity = config_.quantity;
  sess.unacked[sess.unacked_count++] = order;
  ++stats_.orders_sent;
  // Non-marketable sell: never crosses another load-gen session.
  exchange_.deliver_direct(sess.conn,
                           proto::boe::NewOrder{order.client_id, proto::Side::kSell,
                                                order.quantity, sess.symbol, order.price,
                                                proto::boe::TimeInForce::kDay});
}

void LoadGen::cancel_oldest(std::uint32_t session) {
  Sess& sess = sessions_[session];
  if (sess.conn == kNoConn) return;
  for (std::uint8_t i = 0; i < sess.open_count; ++i) {
    if (sess.open[i].cancel_requested) continue;
    sess.open[i].cancel_requested = true;
    ++stats_.cancels_sent;
    exchange_.deliver_direct(sess.conn, proto::boe::CancelOrder{sess.open[i].client_id});
    return;
  }
}

void LoadGen::resubmit_after_reset(std::uint32_t session) {
  Sess& sess = sessions_[session];
  if (sess.state != kReady || sess.conn == kNoConn) return;
  // Orders sent before the drop that never got a (replayed) ack: resend
  // with the original client id — the exchange's dedupe makes this safe.
  for (std::uint8_t i = 0; i < sess.unacked_count; ++i) {
    ++stats_.orders_sent;
    ++stats_.resubmitted_orders;
    exchange_.deliver_direct(sess.conn,
                             proto::boe::NewOrder{sess.unacked[i].client_id, proto::Side::kSell,
                                                  sess.unacked[i].quantity, sess.symbol,
                                                  sess.unacked[i].price,
                                                  proto::boe::TimeInForce::kDay});
  }
  // Orders the exchange cancelled on disconnect: re-rest with fresh ids.
  const std::uint8_t cod = sess.cod_count;
  sess.cod_count = 0;
  for (std::uint8_t i = 0; i < cod && sess.unacked_count < kMaxOpen; ++i) {
    OpenOrder order = sess.cod_resub[i];
    order.client_id = fresh_client_id(session);
    order.cancel_requested = false;
    sess.unacked[sess.unacked_count++] = order;
    ++stats_.orders_sent;
    ++stats_.cod_resubmitted;
    exchange_.deliver_direct(sess.conn,
                             proto::boe::NewOrder{order.client_id, proto::Side::kSell,
                                                  order.quantity, sess.symbol, order.price,
                                                  proto::boe::TimeInForce::kDay});
  }
  maybe_storm_recovered(session);
}

void LoadGen::maybe_storm_recovered(std::uint32_t session) {
  Sess& sess = sessions_[session];
  if (!sess.storm_victim || sess.state != kReady) return;
  if (sess.unacked_count != 0 || sess.cod_count != 0) return;
  sess.storm_victim = false;
  --storm_outstanding_;
  if (storm_outstanding_ == 0) storm_recovered_at_ = engine_.now();
}

void LoadGen::on_direct_bytes(std::uint32_t conn, std::span<const std::byte> bytes) {
  stats_.bytes_received += bytes.size();
  const std::uint32_t session =
      conn < conn_to_session_.size() ? conn_to_session_[conn] : kNoSession;
  if (session == kNoSession) return;  // stale leg (dropped while in flight)
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const auto decoded = proto::boe::decode(bytes.subspan(offset));
    if (!decoded) break;
    offset += decoded->consumed;
    ++stats_.messages_received;
    handle_message(session, *decoded);
    if (sessions_[session].conn != conn) break;  // session moved on mid-buffer
  }
}

void LoadGen::on_direct_closed(std::uint32_t conn) {
  // Exchange-initiated kill (liveness timeout / takeover). Called from
  // inside the exchange: no synchronous calls back in — just queue the
  // reconnect for a future tick.
  const std::uint32_t session =
      conn < conn_to_session_.size() ? conn_to_session_[conn] : kNoSession;
  if (session == kNoSession) return;
  Sess& sess = sessions_[session];
  if (sess.conn != conn) return;
  ++stats_.closed_by_exchange;
  if (sess.state == kReady) --ready_count_;
  sess.state = kDown;
  sess.conn = kNoConn;
  conn_to_session_[conn] = kNoSession;
  relogin_queue_.emplace_back(session, tick_index_ + kDownTicks);
}

void LoadGen::handle_message(std::uint32_t session, const proto::boe::Decoded& decoded) {
  using namespace proto::boe;
  Sess& sess = sessions_[session];
  if (decoded.seq > 0) sess.last_seen_seq = std::max(sess.last_seen_seq, decoded.seq);

  if (std::get_if<LoginAccepted>(&decoded.message) != nullptr) {
    ++stats_.logins_accepted;
    if (!sess.ever_ready) {
      sess.ever_ready = true;
      sess.state = kReady;
      ++ready_count_;
      ++admitted_count_;
      if (admitted_count_ == config_.sessions) admitted_at_ = engine_.now();
      // Seed the resting baseline (deferred: we are inside the exchange's
      // send path here).
      engine_.schedule_in(sim::Duration::zero(), [this, session] {
        Sess& s = sessions_[session];
        while (s.state == kReady &&
               s.open_count + s.unacked_count < config_.target_open_orders) {
          submit(session);
        }
      });
    } else {
      sess.state = kReplaying;
      ++stats_.replays_requested;
      send(session, ReplayRequest{sess.last_seen_seq});
    }
    return;
  }
  if (const auto* rejected = std::get_if<LoginRejected>(&decoded.message)) {
    (void)rejected;
    ++stats_.login_rejects;
    if (sess.state == kReady) --ready_count_;
    sess.state = kDown;
    relogin_queue_.emplace_back(session, tick_index_ + kDownTicks);
    return;
  }
  if (const auto* reset = std::get_if<SequenceReset>(&decoded.message)) {
    (void)reset;
    ++stats_.sequence_resets;
    if (sess.state == kReplaying) {
      sess.state = kReady;
      ++ready_count_;
    }
    engine_.schedule_in(sim::Duration::zero(),
                        [this, session] { resubmit_after_reset(session); });
    return;
  }
  if (std::get_if<Heartbeat>(&decoded.message) != nullptr) {
    // Answering refreshes the exchange's liveness timer; the exchange never
    // replies to a heartbeat, so there is no ping-pong.
    ++stats_.heartbeats_seen;
    ++stats_.heartbeats_answered;
    send(session, Heartbeat{});
    return;
  }
  if (const auto* accepted = std::get_if<OrderAccepted>(&decoded.message)) {
    for (std::uint8_t i = 0; i < sess.unacked_count; ++i) {
      if (sess.unacked[i].client_id != accepted->client_order_id) continue;
      ++stats_.orders_acked;
      if (sess.open_count < kMaxOpen) sess.open[sess.open_count++] = sess.unacked[i];
      sess.unacked[i] = sess.unacked[--sess.unacked_count];
      maybe_storm_recovered(session);
      return;
    }
    return;  // ack already applied via replay
  }
  if (const auto* rejected = std::get_if<OrderRejected>(&decoded.message)) {
    if (rejected->reason == RejectReason::kDuplicateOrderId) {
      // Idempotent resubmission: the original made it after all.
      ++stats_.duplicate_rejects;
      for (std::uint8_t i = 0; i < sess.unacked_count; ++i) {
        if (sess.unacked[i].client_id != rejected->client_order_id) continue;
        sess.unacked[i] = sess.unacked[--sess.unacked_count];
        break;
      }
      maybe_storm_recovered(session);
    } else {
      ++stats_.order_rejects;
      for (std::uint8_t i = 0; i < sess.unacked_count; ++i) {
        if (sess.unacked[i].client_id != rejected->client_order_id) continue;
        sess.unacked[i] = sess.unacked[--sess.unacked_count];
        break;
      }
      maybe_storm_recovered(session);
    }
    return;
  }
  if (const auto* cancelled = std::get_if<OrderCancelled>(&decoded.message)) {
    for (std::uint8_t i = 0; i < sess.open_count; ++i) {
      if (sess.open[i].client_id != cancelled->client_order_id) continue;
      if (sess.open[i].cancel_requested) {
        ++stats_.cancels_acked;
      } else {
        // Unsolicited: the exchange's cancel-on-disconnect sweep. Remember
        // the parameters so the reconnect can re-rest the order (fresh id).
        ++stats_.cod_cancels_seen;
        if (sess.cod_count < kMaxOpen) {
          sess.cod_resub[sess.cod_count++] = sess.open[i];
        }
      }
      sess.open[i] = sess.open[--sess.open_count];
      return;
    }
    return;
  }
  if (const auto* rejected = std::get_if<CancelRejected>(&decoded.message)) {
    ++stats_.cancel_rejects;
    // kTooLateToCancel: the fill that beat the cancel removes the order.
    for (std::uint8_t i = 0; i < sess.open_count; ++i) {
      if (sess.open[i].client_id == rejected->client_order_id) {
        sess.open[i].cancel_requested = false;
        break;
      }
    }
    return;
  }
  if (const auto* fill = std::get_if<Fill>(&decoded.message)) {
    ++stats_.fills;
    stats_.quantity_filled += fill->quantity;
    sess.position -= static_cast<std::int64_t>(fill->quantity);  // sells only
    if (fill->leaves_quantity == 0) {
      for (std::uint8_t i = 0; i < sess.open_count; ++i) {
        if (sess.open[i].client_id != fill->client_order_id) continue;
        sess.open[i] = sess.open[--sess.open_count];
        break;
      }
    }
    return;
  }
  // OrderModified / Logout / anything else: not used by the generator.
}

proto::OrderId LoadGen::fresh_client_id(std::uint32_t session) noexcept {
  Sess& sess = sessions_[session];
  return (static_cast<proto::OrderId>(session) + 1) << 32 | sess.next_client_seq++;
}

proto::Price LoadGen::next_price(std::uint32_t session) noexcept {
  Sess& sess = sessions_[session];
  sess.price_salt = sess.price_salt * 1664525u + 1013904223u;
  const auto offset = 1 + (sess.price_salt >> 16) % 13;
  return sess.ref_price +
         static_cast<proto::Price>(offset) * proto::price_from_dollars(0.01);
}

std::uint64_t LoadGen::token_of(std::uint32_t session) const noexcept {
  return (config_.seed ^ 0x7361'6c74'7e31ULL) +
         static_cast<std::uint64_t>(session) * 0x9e3779b97f4a7c15ULL;
}

void LoadGen::send(std::uint32_t session, const proto::boe::Message& message) {
  // Deferred delivery: this runs while the exchange is mid-send, and
  // deliver_direct may not be re-entered (see DirectClient).
  engine_.schedule_in(sim::Duration::zero(), [this, session, message] {
    const Sess& sess = sessions_[session];
    if (sess.conn == kNoConn) return;
    exchange_.deliver_direct(sess.conn, message);
  });
}

std::uint64_t LoadGen::fingerprint() const noexcept {
  book::Fnv1a digest;
  for (const Sess& sess : sessions_) {
    digest.mix(static_cast<std::uint64_t>(sess.state) << 32 | sess.open_count << 16 |
               sess.unacked_count << 8 | sess.cod_count);
    digest.mix(static_cast<std::uint64_t>(sess.position));
    digest.mix(static_cast<std::uint64_t>(sess.last_seen_seq) << 32 | sess.next_client_seq);
    for (std::uint8_t i = 0; i < sess.open_count; ++i) {
      digest.mix(sess.open[i].client_id);
      digest.mix(static_cast<std::uint64_t>(sess.open[i].price));
    }
  }
  digest.mix(stats_.orders_sent);
  digest.mix(stats_.orders_acked);
  digest.mix(stats_.cancels_acked);
  digest.mix(stats_.cod_cancels_seen);
  digest.mix(stats_.fills);
  digest.mix(stats_.quantity_filled);
  digest.mix(stats_.replays_requested);
  digest.mix(stats_.duplicate_rejects);
  digest.mix(stats_.messages_received);
  digest.mix(stats_.bytes_received);
  return digest.hash;
}

void LoadGen::register_metrics(telemetry::Registry& registry,
                               const std::string& prefix) const {
  registry.gauge(prefix + ".sessions.ready",
                 [this] { return static_cast<double>(ready_count_); });
  registry.gauge(prefix + ".sessions.admitted",
                 [this] { return static_cast<double>(admitted_count_); });
  registry.gauge(prefix + ".orders.sent",
                 [this] { return static_cast<double>(stats_.orders_sent); });
  registry.gauge(prefix + ".orders.acked",
                 [this] { return static_cast<double>(stats_.orders_acked); });
  registry.gauge(prefix + ".fills", [this] { return static_cast<double>(stats_.fills); });
  registry.gauge(prefix + ".cod_cancels",
                 [this] { return static_cast<double>(stats_.cod_cancels_seen); });
  registry.gauge(prefix + ".replays",
                 [this] { return static_cast<double>(stats_.replays_requested); });
  registry.gauge(prefix + ".drops", [this] { return static_cast<double>(stats_.drops); });
  registry.gauge(prefix + ".closed_by_exchange",
                 [this] { return static_cast<double>(stats_.closed_by_exchange); });
}

}  // namespace tsn::exchange
