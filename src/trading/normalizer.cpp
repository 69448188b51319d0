#include "trading/normalizer.hpp"

#include <stdexcept>
#include <utility>

#include "mcast/subscribe.hpp"
#include "telemetry/trace.hpp"

namespace tsn::trading {

// Per-output-partition packing state.
struct Normalizer::Partition {
  Partition(Normalizer& owner, std::uint16_t index)
      : group(owner.partition_group(index)),
        builder(index, owner.config_.out_mtu_payload,
                [&owner, this](std::vector<std::byte> payload,
                               const proto::norm::DatagramHeader&) {
                  owner.out_stack_->send_multicast(group, owner.config_.out_port, payload);
                  ++owner.stats_.datagrams_out;
                }) {}

  net::Ipv4Addr group;
  proto::norm::DatagramBuilder builder;
  bool flush_scheduled = false;
};

Normalizer::Normalizer(sim::Scheduler& engine, NormalizerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (!config_.partitioning) throw std::invalid_argument{"normalizer requires partitioning"};
  host_ = std::make_unique<net::Host>(engine_, config_.name, config_.software_latency);
  in_nic_ = &host_->add_nic("md-in", config_.in_mac, config_.in_ip);
  out_nic_ = &host_->add_nic("md-out", config_.out_mac, config_.out_ip);
  in_stack_ = std::make_unique<net::NetStack>(*in_nic_);
  out_stack_ = std::make_unique<net::NetStack>(*out_nic_);
  responder_ = std::make_unique<mcast::IgmpResponder>(*in_stack_);

  const std::uint32_t partitions = config_.partitioning->partition_count();
  partitions_.reserve(partitions);
  for (std::uint32_t p = 0; p < partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>(*this, static_cast<std::uint16_t>(p)));
  }

  in_stack_->bind_udp(config_.feed_port,
                      [this](const net::Ipv4Header&, const net::UdpHeader&,
                             std::span<const std::byte> payload, sim::Time arrival) {
                        on_feed_datagram(payload, arrival);
                      });
  if (recovery_enabled()) {
    if (!config_.exchange_partitioning) {
      throw std::invalid_argument{
          "snapshot recovery requires the exchange's partitioning scheme"};
    }
    in_stack_->bind_udp(config_.snapshot_port,
                        [this](const net::Ipv4Header&, const net::UdpHeader&,
                               std::span<const std::byte> payload, sim::Time) {
                          on_snapshot_datagram(payload);
                        });
  }
}

Normalizer::~Normalizer() = default;

void Normalizer::join_feeds() {
  for (const auto group : config_.feed_groups) responder_->join(group);
  for (const auto group : config_.snapshot_groups) responder_->join(group);
}

void Normalizer::on_feed_datagram(std::span<const std::byte> payload, sim::Time arrival) {
  const auto header = proto::pitch::peek_header(payload);
  if (!header) return;
  // Wire arrival of the datagram being processed: the software span an
  // emitted update is attributed to starts here (the NIC rx delay is part
  // of the software hop, §3).
  current_input_arrival_ = arrival;
  ++stats_.datagrams_in;
  // Gap detection per unit.
  auto [it, inserted] = expected_seq_.emplace(header->unit, header->sequence);
  if (!inserted) {
    if (header->sequence > it->second) {
      ++stats_.sequence_gaps;
      stats_.messages_lost += header->sequence - it->second;
      if (recovery_enabled()) {
        Recovery& recovery = recovery_[header->unit];
        if (!recovery.recovering) {
          recovery.recovering = true;
          ++stats_.resyncs_started;
        }
        // A gap while already recovering punches a hole in the buffered
        // tail, so the tail always restarts here.
        recovery.restart_tail(header->sequence);
      }
    }
  }
  it->second = header->sequence + header->count;

  // One decode into the reusable SoA buffer. A malformed tail leaves the
  // valid prefix in `batch_.count`.
  (void)proto::pitch::decode_batch(payload, batch_);

  std::size_t first = 0;
  if (recovery_enabled()) {
    if (auto rec_it = recovery_.find(header->unit); rec_it != recovery_.end()) {
      Recovery& recovery = rec_it->second;
      if (recovery.recovering) {
        // During recovery, buffer the datagram's bytes for replay past the
        // snapshot's resume point instead of applying it to stale state. A
        // full buffer restarts the tail, as a gap does.
        if (recovery.tail_messages + batch_.count > kRecoveryBufferLimit) {
          recovery.restart_tail(header->sequence);
        }
        const auto datagram = payload.first(header->length);
        recovery.tail.insert(recovery.tail.end(), datagram.begin(), datagram.end());
        recovery.tail_messages += batch_.count;
        stats_.messages_buffered_in_recovery += batch_.count;
        return;
      }
      // After a resync, rows below the snapshot's resume point are already
      // in the rebuilt state; they arrive only when the live path lags the
      // snapshot path.
      first = recovery.rows_in_snapshot(header->sequence);
    }
  }
  apply_batch(batch_, first);
}

// tsn-lint: hotpath
void Normalizer::apply_batch(const proto::pitch::DecodedBatch& batch, std::size_t first) {
  using proto::pitch::DecodedKind;
  for (std::size_t i = first; i < batch.count; ++i) {
    ++stats_.messages_in;
    switch (batch.kind[i]) {
      case DecodedKind::kTime:
        handle_time(batch.u32a[i]);
        break;
      case DecodedKind::kAddOrder:
        handle_add({batch.u32a[i], batch.order_id[i], batch.side[i], batch.quantity[i],
                    batch.symbol[i], batch.price[i], batch.flags[i]});
        break;
      case DecodedKind::kOrderExecuted:
        handle_exec({batch.u32a[i], batch.order_id[i], batch.quantity[i],
                     batch.execution_id[i]});
        break;
      case DecodedKind::kReduceSize:
        handle_reduce({batch.u32a[i], batch.order_id[i], batch.quantity[i]});
        break;
      case DecodedKind::kModifyOrder:
        handle_modify({batch.u32a[i], batch.order_id[i], batch.quantity[i], batch.price[i],
                       batch.flags[i]});
        break;
      case DecodedKind::kDeleteOrder:
        handle_delete({batch.u32a[i], batch.order_id[i]});
        break;
      case DecodedKind::kTrade:
        handle_trade({batch.u32a[i], batch.order_id[i], batch.side[i], batch.quantity[i],
                      batch.symbol[i], batch.price[i], batch.execution_id[i]});
        break;
      case DecodedKind::kSnapshotBegin:
      case DecodedKind::kSnapshotEnd:
        // No book state on the live feed: counted and dropped.
        break;
    }
  }
}

void Normalizer::purge_unit_state(std::uint8_t unit) {
  const auto& scheme = *config_.exchange_partitioning;
  // tsn-lint: allow(unordered-iter) order-independent: filtered erase, same surviving set
  for (auto it = orders_.begin(); it != orders_.end();) {
    if (scheme.partition_of(it->second.symbol, proto::InstrumentKind::kEquity) == unit) {
      it = orders_.erase(it);
    } else {
      ++it;
    }
  }
  // tsn-lint: allow(unordered-iter) order-independent: filtered erase, same surviving set
  for (auto it = ladders_.begin(); it != ladders_.end();) {
    if (scheme.partition_of(it->first, proto::InstrumentKind::kEquity) == unit) {
      it = ladders_.erase(it);
    } else {
      ++it;
    }
  }
}

void Normalizer::on_snapshot_datagram(std::span<const std::byte> payload) {
  const auto header = proto::pitch::peek_header(payload);
  if (!header) return;
  const std::uint8_t unit = header->unit;
  auto rec_it = recovery_.find(unit);
  if (rec_it == recovery_.end() || !rec_it->second.recovering) return;  // healthy: ignore
  Recovery& recovery = rec_it->second;
  (void)proto::pitch::decode_batch(payload, snapshot_batch_);
  const proto::pitch::DecodedBatch& snap = snapshot_batch_;
  using proto::pitch::DecodedKind;
  for (std::size_t i = 0; i < snap.count; ++i) {
    switch (snap.kind[i]) {
      case DecodedKind::kSnapshotBegin:
        // A fresh cycle: rebuild from scratch.
        purge_unit_state(unit);
        recovery.snapshot_active = true;
        recovery.resume_sequence = snap.u32a[i];
        recovery.snapshot_orders = 0;
        break;
      case DecodedKind::kAddOrder:
        if (!recovery.snapshot_active) break;  // mid-cycle join: wait for the next begin
        orders_[snap.order_id[i]] =
            OrderInfo{snap.symbol[i], snap.side[i], snap.price[i], snap.quantity[i]};
        (void)apply_depth(snap.symbol[i], snap.side[i], snap.price[i], snap.quantity[i]);
        ++stats_.snapshot_orders_applied;
        ++recovery.snapshot_orders;
        break;
      case DecodedKind::kSnapshotEnd:
        if (!recovery.snapshot_active) break;
        recovery.snapshot_active = false;
        // Complete only a whole rebuild: every order the cycle carried was
        // applied (no snapshot datagram lost), and the buffered tail reaches
        // back to the resume point (no live message lost after it).
        // Otherwise drop the cycle, keep the tail, and wait for the next
        // begin, which purges the partial rebuild.
        if (recovery.snapshot_orders != snap.u32a[i] ||
            recovery.tail_start > recovery.resume_sequence) {
          break;
        }
        recovery.recovering = false;
        replay_tail(recovery);
        ++stats_.resyncs_completed;
        return;  // the unit is healthy again: the rest is not for it
      default:
        break;  // a snapshot cycle carries only begin, adds and end
    }
  }
}

void Normalizer::replay_tail(const Recovery& recovery) {
  // Each stored datagram passed peek_header on arrival, so decoding the
  // rest of the arena decodes exactly the next datagram, and its header
  // length says where the one after it starts.
  std::span<const std::byte> rest{recovery.tail};
  while (!rest.empty()) {
    (void)proto::pitch::decode_batch(rest, batch_);
    const std::size_t first = recovery.rows_in_snapshot(batch_.header.sequence);
    if (first < batch_.count) {
      apply_batch(batch_, first);
      stats_.messages_replayed_after_recovery += batch_.count - first;
    }
    rest = rest.subspan(batch_.header.length);
  }
}

Normalizer::TopChange Normalizer::apply_depth(const proto::Symbol& symbol,
                                              proto::Side side, proto::Price price,
                                              std::int64_t delta) {
  Ladder& ladder = ladders_[symbol];
  auto top_of = [&](auto& book_side) -> std::pair<proto::Price, proto::Quantity> {
    if (book_side.empty()) return {0, 0};
    return {book_side.begin()->first, book_side.begin()->second};
  };
  auto apply = [&](auto& book_side) {
    auto level = book_side.find(price);
    if (level == book_side.end()) {
      if (delta > 0) book_side.emplace(price, static_cast<proto::Quantity>(delta));
      return;
    }
    const std::int64_t next = static_cast<std::int64_t>(level->second) + delta;
    if (next <= 0) {
      book_side.erase(level);
    } else {
      level->second = static_cast<proto::Quantity>(next);
    }
  };
  TopChange out;
  if (side == proto::Side::kBuy) {
    const auto before = top_of(ladder.bids);
    apply(ladder.bids);
    const auto after = top_of(ladder.bids);
    if (after != before) out = TopChange{true, after.first, after.second};
  } else {
    const auto before = top_of(ladder.asks);
    apply(ladder.asks);
    const auto after = top_of(ladder.asks);
    if (after != before) out = TopChange{true, after.first, after.second};
  }
  return out;
}

void Normalizer::emit_bbo(const proto::Symbol& symbol, proto::Side side,
                          const TopChange& change, std::uint64_t exchange_time_ns) {
  if (!change.changed) return;
  ++stats_.bbo_updates;
  proto::norm::Update update;
  update.kind = proto::norm::UpdateKind::kBboUpdate;
  update.exchange_id = config_.exchange_id;
  update.side = side;
  update.symbol = symbol;
  update.price = change.best;        // the *new* best (0 = side emptied)
  update.quantity = change.quantity;  // depth at the new best
  update.order_id = 0;
  update.exchange_time_ns = exchange_time_ns;
  emit(update);
}

Normalizer::OrderInfo* Normalizer::resolve(proto::OrderId id) {
  auto it = orders_.find(id);
  if (it == orders_.end()) {
    ++stats_.unknown_orders;
    return nullptr;
  }
  return &it->second;
}

void Normalizer::handle_time(std::uint32_t seconds_since_midnight) {
  clock_seconds_ = seconds_since_midnight;  // clock messages are not republished
}

void Normalizer::handle_add(const proto::pitch::AddOrder& add) {
  orders_[add.order_id] = OrderInfo{add.symbol, add.side, add.price, add.quantity};
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.kind = proto::norm::UpdateKind::kOrderAdd;
  update.side = add.side;
  update.symbol = add.symbol;
  update.price = add.price;
  update.quantity = add.quantity;
  update.order_id = add.order_id;
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + add.time_offset_ns;
  const auto change = apply_depth(add.symbol, add.side, add.price, add.quantity);
  emit(update);
  emit_bbo(add.symbol, add.side, change, update.exchange_time_ns);
}

void Normalizer::handle_exec(const proto::pitch::OrderExecuted& exec) {
  OrderInfo* info = resolve(exec.order_id);
  if (info == nullptr) return;
  const proto::Quantity traded = std::min(exec.executed_quantity, info->quantity);
  info->quantity -= traded;
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.kind = proto::norm::UpdateKind::kTradePrint;
  update.side = info->side;
  update.symbol = info->symbol;
  update.price = info->price;
  update.quantity = traded;
  update.order_id = exec.order_id;
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + exec.time_offset_ns;
  const auto side = info->side;
  const auto symbol = info->symbol;
  const auto change =
      apply_depth(info->symbol, info->side, info->price, -static_cast<std::int64_t>(traded));
  if (info->quantity == 0) orders_.erase(exec.order_id);
  emit(update);
  emit_bbo(symbol, side, change, update.exchange_time_ns);
}

void Normalizer::handle_reduce(const proto::pitch::ReduceSize& reduce) {
  OrderInfo* info = resolve(reduce.order_id);
  if (info == nullptr) return;
  const proto::Quantity cut = std::min(reduce.cancelled_quantity, info->quantity);
  info->quantity -= cut;
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.kind = proto::norm::UpdateKind::kOrderModify;
  update.side = info->side;
  update.symbol = info->symbol;
  update.price = info->price;
  update.quantity = info->quantity;
  update.order_id = reduce.order_id;
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + reduce.time_offset_ns;
  const auto side = info->side;
  const auto symbol = info->symbol;
  const auto change =
      apply_depth(info->symbol, info->side, info->price, -static_cast<std::int64_t>(cut));
  if (info->quantity == 0) orders_.erase(reduce.order_id);
  emit(update);
  emit_bbo(symbol, side, change, update.exchange_time_ns);
}

void Normalizer::handle_modify(const proto::pitch::ModifyOrder& modify) {
  OrderInfo* info = resolve(modify.order_id);
  if (info == nullptr) return;
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.kind = proto::norm::UpdateKind::kOrderModify;
  update.side = info->side;
  update.symbol = info->symbol;
  update.price = modify.price;
  update.quantity = modify.quantity;
  update.order_id = modify.order_id;
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + modify.time_offset_ns;
  // Two ladder edits (leave the old level, enter the new one): emit one
  // BBO update describing the final top, not the transient middle state.
  const auto first = apply_depth(info->symbol, info->side, info->price,
                                 -static_cast<std::int64_t>(info->quantity));
  info->price = modify.price;
  info->quantity = modify.quantity;
  const auto second =
      apply_depth(info->symbol, info->side, info->price, modify.quantity);
  emit(update);
  if (first.changed || second.changed) {
    TopChange final_top = second;
    if (!second.changed) {
      // The second edit left the top where the first edit put it.
      const auto bbo = best_of(info->symbol);
      final_top.changed = true;
      if (info->side == proto::Side::kBuy) {
        final_top.best = bbo ? bbo->bid : 0;
      } else {
        final_top.best = bbo ? bbo->ask : 0;
      }
      final_top.quantity = 0;  // unknown without a depth query; price is the signal
    }
    emit_bbo(info->symbol, info->side, final_top, update.exchange_time_ns);
  }
}

void Normalizer::handle_delete(const proto::pitch::DeleteOrder& del) {
  OrderInfo* info = resolve(del.order_id);
  if (info == nullptr) return;
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.kind = proto::norm::UpdateKind::kOrderDelete;
  update.side = info->side;
  update.symbol = info->symbol;
  update.price = info->price;
  update.quantity = 0;
  update.order_id = del.order_id;
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + del.time_offset_ns;
  const auto side = info->side;
  const auto symbol = info->symbol;
  const auto change = apply_depth(info->symbol, info->side, info->price,
                                  -static_cast<std::int64_t>(info->quantity));
  orders_.erase(del.order_id);
  emit(update);
  emit_bbo(symbol, side, change, update.exchange_time_ns);
}

void Normalizer::handle_trade(const proto::pitch::Trade& trade) {
  proto::norm::Update update;
  update.exchange_id = config_.exchange_id;
  update.kind = proto::norm::UpdateKind::kTradePrint;
  update.side = trade.side;
  update.symbol = trade.symbol;
  update.price = trade.price;
  update.quantity = trade.quantity;
  update.order_id = trade.order_id;
  update.exchange_time_ns =
      std::uint64_t{clock_seconds_} * 1'000'000'000ULL + trade.time_offset_ns;
  emit(update);
}

void Normalizer::register_metrics(telemetry::Registry& registry,
                                  const std::string& prefix) const {
  registry.gauge(prefix + ".datagrams_in",
                 [this] { return static_cast<double>(stats_.datagrams_in); });
  registry.gauge(prefix + ".messages_in",
                 [this] { return static_cast<double>(stats_.messages_in); });
  registry.gauge(prefix + ".updates_out",
                 [this] { return static_cast<double>(stats_.updates_out); });
  registry.gauge(prefix + ".datagrams_out",
                 [this] { return static_cast<double>(stats_.datagrams_out); });
  registry.gauge(prefix + ".bbo_updates",
                 [this] { return static_cast<double>(stats_.bbo_updates); });
  registry.gauge(prefix + ".sequence_gaps",
                 [this] { return static_cast<double>(stats_.sequence_gaps); });
  registry.gauge(prefix + ".messages_lost",
                 [this] { return static_cast<double>(stats_.messages_lost); });
  registry.gauge(prefix + ".unknown_orders",
                 [this] { return static_cast<double>(stats_.unknown_orders); });
  registry.gauge(prefix + ".resyncs_started",
                 [this] { return static_cast<double>(stats_.resyncs_started); });
  registry.gauge(prefix + ".resyncs_completed",
                 [this] { return static_cast<double>(stats_.resyncs_completed); });
  registry.gauge(prefix + ".snapshot_orders_applied",
                 [this] { return static_cast<double>(stats_.snapshot_orders_applied); });
  registry.gauge(prefix + ".messages_buffered_in_recovery",
                 [this] { return static_cast<double>(stats_.messages_buffered_in_recovery); });
  registry.gauge(prefix + ".messages_replayed_after_recovery",
                 [this] { return static_cast<double>(stats_.messages_replayed_after_recovery); });
  registry.gauge(prefix + ".tracked_orders",
                 [this] { return static_cast<double>(tracked_orders()); });
}

std::optional<Normalizer::ReconstructedBbo> Normalizer::best_of(
    const proto::Symbol& symbol) const {
  const auto it = ladders_.find(symbol);
  if (it == ladders_.end()) return std::nullopt;
  const auto [bid, ask] = it->second.best();
  return ReconstructedBbo{bid, ask};
}

void Normalizer::emit(const proto::norm::Update& update) {
  const std::uint32_t partition = config_.partitioning->partition_of(
      update.symbol, proto::InstrumentKind::kEquity);
  Partition& out = *partitions_.at(partition);
  const auto now_ns = static_cast<std::uint64_t>(engine_.now().picos() / 1000);
  out.builder.append(update, now_ns);
  ++stats_.updates_out;
  if (!out.flush_scheduled) {
    out.flush_scheduled = true;
    // The flush runs as its own event: carry the triggering datagram's trace
    // into it so the republished frames join the same trace, and close the
    // normalizer's software span [feed wire arrival, flush/hand-off].
    const telemetry::TraceId trace = telemetry::current_trace();
    const sim::Time t_in = current_input_arrival_;
    engine_.schedule_in(sim::Duration::zero(), [this, &out, trace, t_in] {
      out.flush_scheduled = false;
      telemetry::TraceScope scope{trace};
      out.builder.flush();
      telemetry::record_span(trace, config_.name, telemetry::SpanKind::kSoftware, t_in,
                             engine_.now());
    });
  }
}

}  // namespace tsn::trading
