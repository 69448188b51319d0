#include "trading/normalizer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mcast/subscribe.hpp"
#include "telemetry/trace.hpp"

namespace tsn::trading {

// Per-output-partition packing state.
struct Normalizer::Partition {
  Partition(Normalizer& owner, std::uint16_t index)
      : group(owner.partition_group(index)),
        builder(index, net::kMaxDatagramPayload,
                [&owner, this](std::span<const std::byte> payload) {
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
  auto [it, inserted] = expected_seq_.try_emplace(header->unit, header->sequence);
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

namespace {

// A side's best (price, depth); zeros for an empty side.
std::pair<proto::Price, proto::Quantity> top_of(const book::OrderBook& book, proto::Side side) {
  const book::BestQuote quote = book.best();
  if (side == proto::Side::kBuy) return {quote.bid_price.value_or(0), quote.bid_quantity};
  return {quote.ask_price.value_or(0), quote.ask_quantity};
}

}  // namespace

// tsn-lint: hotpath
void Normalizer::apply_batch(const proto::pitch::DecodedBatch& batch, std::size_t first) {
  using proto::norm::UpdateKind;
  using proto::pitch::DecodedKind;
  for (std::size_t i = first; i < batch.count; ++i) {
    ++stats_.messages_in;
    // The exchange's stamp: the last Time message plus the row's offset.
    const std::uint64_t time_ns =
        std::uint64_t{clock_seconds_} * 1'000'000'000ULL + batch.u32a[i];
    switch (batch.kind[i]) {
      case DecodedKind::kTime:
        clock_seconds_ = batch.u32a[i];  // clock messages are not republished
        break;
      case DecodedKind::kAddOrder: {
        BookEntry& entry = *books_.try_emplace(batch.symbol[i], batch.symbol[i]).first;
        const book::Order order{batch.order_id[i], batch.side[i], batch.price[i],
                                batch.quantity[i]};
        const Top before = top_of(entry.second, order.side);
        rest(entry, order);
        emit(UpdateKind::kOrderAdd, entry.first, order, time_ns);
        emit_bbo(entry, order.side, before, time_ns);
        break;
      }
      case DecodedKind::kOrderExecuted:
      case DecodedKind::kReduceSize:
      case DecodedKind::kModifyOrder:
      case DecodedKind::kDeleteOrder:
        apply_order(batch, i, time_ns);
        break;
      case DecodedKind::kTrade:
        // An off-book print: republished, and no book holds it.
        emit(UpdateKind::kTradePrint, batch.symbol[i],
             book::Order{batch.order_id[i], batch.side[i], batch.price[i], batch.quantity[i]},
             time_ns);
        break;
      case DecodedKind::kSnapshotBegin:
      case DecodedKind::kSnapshotEnd:
        // No book state on the live feed: counted and dropped.
        break;
    }
  }
}

// tsn-lint: hotpath
void Normalizer::rest(BookEntry& entry, const book::Order& order) {
  // A live id, here or in another symbol's book, leaves the books as they are.
  if (book_of_.find(order.id) == nullptr && entry.second.rest(order)) {
    book_of_.insert(order.id, &entry);
  }
}

// tsn-lint: hotpath
void Normalizer::apply_order(const proto::pitch::DecodedBatch& batch, std::size_t i,
                             std::uint64_t exchange_time_ns) {
  using proto::norm::UpdateKind;
  using proto::pitch::DecodedKind;
  const proto::OrderId id = batch.order_id[i];
  BookEntry* const* found = book_of_.find(id);
  if (found == nullptr) {
    ++stats_.unknown_orders;
    return;
  }
  BookEntry& entry = **found;
  book::OrderBook& book = entry.second;
  const book::Order order = *book.find(id);
  const Top before = top_of(book, order.side);
  // The order once the message applies; quantity 0 drops it.
  book::Order next = order;
  UpdateKind kind = UpdateKind::kOrderModify;
  switch (batch.kind[i]) {
    case DecodedKind::kModifyOrder:
      // Cancel, then rest at the back of the new level.
      next.price = batch.price[i];
      next.quantity = batch.quantity[i];
      (void)book.cancel(id);
      (void)book.rest(next);
      break;
    case DecodedKind::kDeleteOrder:
      kind = UpdateKind::kOrderDelete;
      next.quantity = 0;
      (void)book.cancel(id);
      break;
    default:  // an execute or a reduce takes at most what rests
      if (batch.kind[i] == DecodedKind::kOrderExecuted) kind = UpdateKind::kTradePrint;
      next.quantity -= std::min(batch.quantity[i], order.quantity);
      (void)book.reduce(id, next.quantity);  // reducing to 0 cancels
      break;
  }
  if (next.quantity == 0) book_of_.erase(id);
  // A print carries the traded quantity; every other update what rests.
  if (kind == UpdateKind::kTradePrint) next.quantity = order.quantity - next.quantity;
  emit(kind, entry.first, next, exchange_time_ns);
  emit_bbo(entry, order.side, before, exchange_time_ns);
}

void Normalizer::purge_unit_state(std::uint8_t unit) {
  const auto& scheme = *config_.exchange_partitioning;
  // tsn-lint: allow(unordered-iter) order-independent: filtered erase, same surviving set
  for (auto it = books_.begin(); it != books_.end();) {
    if (scheme.partition_of(it->first, proto::InstrumentKind::kEquity) != unit) {
      ++it;
      continue;
    }
    it->second.for_each_order([this](const book::Order& order) { book_of_.erase(order.id); });
    it = books_.erase(it);
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
        rest(*books_.try_emplace(snap.symbol[i], snap.symbol[i]).first,
             book::Order{snap.order_id[i], snap.side[i], snap.price[i], snap.quantity[i]});
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
  std::span<const std::byte> unread{recovery.tail};
  while (!unread.empty()) {
    (void)proto::pitch::decode_batch(unread, batch_);
    const std::size_t first = recovery.rows_in_snapshot(batch_.header.sequence);
    if (first < batch_.count) {
      apply_batch(batch_, first);
      stats_.messages_replayed_after_recovery += batch_.count - first;
    }
    unread = unread.subspan(batch_.header.length);
  }
}

// tsn-lint: hotpath
void Normalizer::emit_bbo(const BookEntry& entry, proto::Side side, Top before,
                          std::uint64_t exchange_time_ns) {
  const Top after = top_of(entry.second, side);
  if (after == before) return;
  ++stats_.bbo_updates;
  // The new best and its depth (price 0 = side emptied); no order id.
  emit(proto::norm::UpdateKind::kBboUpdate, entry.first,
       book::Order{0, side, after.first, after.second}, exchange_time_ns);
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
  const auto it = books_.find(symbol);
  if (it == books_.end()) return std::nullopt;
  const book::BestQuote quote = it->second.best();
  return ReconstructedBbo{quote.bid_price.value_or(0), quote.ask_price.value_or(0)};
}

// tsn-lint: hotpath
void Normalizer::emit(proto::norm::UpdateKind kind, const proto::Symbol& symbol,
                      const book::Order& order, std::uint64_t exchange_time_ns) {
  const proto::norm::Update update{.kind = kind,
                                   .exchange_id = config_.exchange_id,
                                   .side = order.side,
                                   .symbol = symbol,
                                   .price = order.price,
                                   .quantity = order.quantity,
                                   .order_id = order.id,
                                   .exchange_time_ns = exchange_time_ns};
  const std::uint32_t partition =
      config_.partitioning->partition_of(symbol, proto::InstrumentKind::kEquity);
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
