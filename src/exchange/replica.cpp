#include "exchange/replica.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"
#include "net/headers.hpp"
#include "proto/boe.hpp"

namespace tsn::exchange {

namespace {

constexpr std::uint8_t kDgramRecords = 1;
constexpr std::uint8_t kDgramHeartbeat = 2;
constexpr std::uint8_t kDgramStatus = 3;

constexpr std::uint8_t kRecordLogin = 0;
constexpr std::uint8_t kRecordMessage = 1;
constexpr std::uint8_t kRecordSessionDead = 2;

// [rep_seq u32][kind u8][at_ps i64][session u32][len u16] = 19 bytes.
constexpr std::size_t kRecordHeader = 19;
// [type u8][epoch u64] = 9 bytes.
constexpr std::size_t kDgramHeader = 9;

// Applier-side progress/fence status cadence.
constexpr sim::Duration kStatusInterval = sim::millis(std::int64_t{1});
// Both ends start in this epoch; a promotion moves past it.
constexpr std::uint64_t kFirstEpoch = 1;

}  // namespace

// --- ReplicaStream ---------------------------------------------------------

ReplicaStream::ReplicaStream(sim::Scheduler& engine, Exchange& primary, ReplicaConfig config)
    : engine_(engine), primary_(primary), config_(std::move(config)), epoch_(kFirstEpoch) {
  host_ = std::make_unique<net::Host>(engine_, config_.name, sim::micros(std::int64_t{1}));
  nic_ = &host_->add_nic("bridge", config_.local_mac, config_.local_ip);
  stack_ = std::make_unique<net::NetStack>(*nic_);
  stack_->bind_udp(config_.local_port,
                   [this](const net::Ipv4Header&, const net::UdpHeader&,
                          std::span<const std::byte> payload, sim::Time) { on_datagram(payload); });
  scratch_record_.reserve(128);
  scratch_datagram_.reserve(net::kMaxDatagramPayload);
}

ReplicaStream::~ReplicaStream() = default;

void ReplicaStream::start() {
  primary_.set_input_listener(this);
  engine_.schedule_in(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void ReplicaStream::stage(std::uint8_t kind, std::uint32_t session_id,
                          std::span<const std::byte> payload) {
  if (crashed_ || fenced_) return;
  std::vector<std::byte> record;
  record.reserve(kRecordHeader + payload.size());
  net::WireWriter w{record};
  w.u32_le(next_rep_seq_);
  w.u8(kind);
  w.u64_le(static_cast<std::uint64_t>(engine_.now().picos()));
  w.u32_le(session_id);
  TSN_ASSERT(payload.size() <= 0xffff, "replication record payload too large");
  w.u16_le(static_cast<std::uint16_t>(payload.size()));
  w.bytes(payload);
  records_.push_back(std::move(record));
  ++next_rep_seq_;
  ++stats_.records_emitted;
  schedule_wire_flush();
}

void ReplicaStream::on_admitted_login(std::uint32_t session_id, std::uint64_t token) {
  scratch_record_.clear();
  net::WireWriter{scratch_record_}.u64_le(token);
  stage(kRecordLogin, session_id, scratch_record_);
}

void ReplicaStream::on_admitted_message(std::uint32_t session_id,
                                        const proto::boe::Message& message) {
  scratch_record_.clear();
  proto::boe::encode_into(message, 0, scratch_record_);
  stage(kRecordMessage, session_id, scratch_record_);
}

void ReplicaStream::on_admitted_session_dead(std::uint32_t session_id) {
  stage(kRecordSessionDead, session_id, {});
}

void ReplicaStream::schedule_wire_flush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Zero delay: the flush runs after the current event cascade but within
  // the same instant, so the record hits the wire before (or exactly when)
  // the client's acknowledgement does. A crash event at a later instant can
  // therefore never separate an observed ack from its replication record.
  engine_.schedule_in(sim::Duration::zero(), [this] {
    flush_scheduled_ = false;
    wire_flush();
  });
}

void ReplicaStream::wire_flush() {
  if (crashed_ || fenced_) return;
  if (flushed_seq_ + 1 >= next_rep_seq_) return;  // nothing pending
  send_records(flushed_seq_ + 1, next_rep_seq_ - 1, /*retransmit=*/false);
  flushed_seq_ = next_rep_seq_ - 1;
}

void ReplicaStream::send_records(std::uint32_t first_seq, std::uint32_t last_seq,
                                 bool retransmit) {
  scratch_datagram_.clear();
  auto begin_dgram = [this] {
    scratch_datagram_.clear();
    net::WireWriter w{scratch_datagram_};
    w.u8(kDgramRecords);
    w.u64_le(epoch_);
  };
  auto send_dgram = [this] {
    if (scratch_datagram_.size() <= kDgramHeader) return;
    stack_->send_udp(config_.peer_mac, config_.peer_ip, config_.local_port, config_.peer_port,
                     scratch_datagram_);
    ++stats_.datagrams_sent;
  };
  begin_dgram();
  for (std::uint32_t seq = first_seq; seq <= last_seq; ++seq) {
    const std::vector<std::byte>& record = records_[seq - 1];
    if (scratch_datagram_.size() > kDgramHeader &&
        scratch_datagram_.size() + record.size() > net::kMaxDatagramPayload) {
      send_dgram();
      begin_dgram();
    }
    scratch_datagram_.insert(scratch_datagram_.end(), record.begin(), record.end());
    if (retransmit) ++stats_.records_retransmitted;
  }
  send_dgram();
}

void ReplicaStream::heartbeat_tick() {
  if (crashed_ || fenced_) return;  // a halted leader announces nothing
  // Flush first so (flushed_seq, digest) is self-consistent: the digest is
  // exactly the state after applying everything on the wire. The bridge
  // link is FIFO, so a caught-up applier compares apples to apples.
  wire_flush();
  scratch_datagram_.clear();
  net::WireWriter w{scratch_datagram_};
  w.u8(kDgramHeartbeat);
  w.u64_le(epoch_);
  w.u32_le(flushed_seq_);
  w.u64_le(primary_.state_digest());
  stack_->send_udp(config_.peer_mac, config_.peer_ip, config_.local_port, config_.peer_port,
                   scratch_datagram_);
  ++stats_.heartbeats_sent;
  engine_.schedule_in(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void ReplicaStream::on_datagram(std::span<const std::byte> payload) {
  if (crashed_) return;
  net::WireReader r{payload};
  const std::uint8_t type = r.u8();
  const std::uint64_t epoch = r.u64_le();
  const std::uint32_t applied = r.u32_le();
  if (!r.ok() || type != kDgramStatus) return;
  ++stats_.statuses_received;
  if (epoch > epoch_) {
    // Someone with a higher epoch leads — we were partitioned away and the
    // standby promoted. Fence: silence the exchange (books frozen, legs
    // FIN'd so clients re-home) and stop announcing. Split-brain resolved.
    fenced_ = true;
    primary_.fence();
    return;
  }
  if (fenced_) return;
  // NAK-style retransmit: progress stalled below our watermark across two
  // consecutive statuses means records were lost (link flap, partition
  // window) — resend the missing tail. In-flight records simply not yet
  // applied advance `applied` between statuses and trigger nothing.
  if (saw_status_ && applied == last_status_applied_ && applied < flushed_seq_) {
    send_records(applied + 1, flushed_seq_, /*retransmit=*/true);
    ++stats_.retransmit_bursts;
  }
  saw_status_ = true;
  last_status_applied_ = applied;
}

void ReplicaStream::register_metrics(telemetry::Registry& registry,
                                     const std::string& prefix) const {
  registry.gauge(prefix + ".records_emitted",
                 [this] { return static_cast<double>(stats_.records_emitted); });
  registry.gauge(prefix + ".datagrams_sent",
                 [this] { return static_cast<double>(stats_.datagrams_sent); });
  registry.gauge(prefix + ".heartbeats_sent",
                 [this] { return static_cast<double>(stats_.heartbeats_sent); });
  registry.gauge(prefix + ".statuses_received",
                 [this] { return static_cast<double>(stats_.statuses_received); });
  registry.gauge(prefix + ".records_retransmitted",
                 [this] { return static_cast<double>(stats_.records_retransmitted); });
  registry.gauge(prefix + ".retransmit_bursts",
                 [this] { return static_cast<double>(stats_.retransmit_bursts); });
  registry.gauge(prefix + ".epoch", [this] { return static_cast<double>(epoch_); });
  registry.gauge(prefix + ".fenced", [this] { return fenced_ ? 1.0 : 0.0; });
}

// --- ReplicaApplier --------------------------------------------------------

ReplicaApplier::ReplicaApplier(sim::Scheduler& engine, Exchange& backup, ReplicaConfig config)
    : engine_(engine),
      backup_(backup),
      config_(std::move(config)),
      epoch_(kFirstEpoch),
      remote_epoch_(kFirstEpoch) {
  host_ = std::make_unique<net::Host>(engine_, config_.name, sim::micros(std::int64_t{1}));
  nic_ = &host_->add_nic("bridge", config_.local_mac, config_.local_ip);
  stack_ = std::make_unique<net::NetStack>(*nic_);
}

ReplicaApplier::~ReplicaApplier() = default;

void ReplicaApplier::start() {
  if (started_) return;
  started_ = true;
  last_heartbeat_at_ = engine_.now();
  stack_->bind_udp(config_.local_port,
                   [this](const net::Ipv4Header&, const net::UdpHeader&,
                          std::span<const std::byte> payload, sim::Time) { on_datagram(payload); });
  engine_.schedule_in(kStatusInterval, [this] { status_tick(); });
}

void ReplicaApplier::begin_promotion() noexcept {
  epoch_ = std::max(epoch_, remote_epoch_) + 1;
}

void ReplicaApplier::apply_record(std::uint8_t kind, std::uint32_t session_id,
                                  std::int64_t at_ps, std::span<const std::byte> payload) {
  switch (kind) {
    case kRecordLogin: {
      net::WireReader r{payload};
      const std::uint64_t token = r.u64_le();
      if (!r.ok()) return;
      backup_.apply_replicated_login(session_id, token, at_ps);
      return;
    }
    case kRecordMessage: {
      const auto decoded = proto::boe::decode(payload);
      if (!decoded) return;
      backup_.apply_replicated_message(session_id, decoded->message, at_ps);
      return;
    }
    case kRecordSessionDead:
      backup_.apply_replicated_session_dead(session_id, at_ps);
      return;
    default:
      return;
  }
}

void ReplicaApplier::on_datagram(std::span<const std::byte> payload) {
  ++stats_.datagrams_received;
  net::WireReader r{payload};
  const std::uint8_t type = r.u8();
  const std::uint64_t epoch = r.u64_le();
  if (!r.ok()) return;
  if (epoch < epoch_) {
    // Post-promotion traffic from the deposed leader: we are the epoch now.
    // Dropping (instead of applying) is what makes the promoted book
    // authoritative; the status stream will fence the sender on contact.
    ++stats_.stale_epoch_dropped;
    return;
  }
  if (type == kDgramHeartbeat) {
    const std::uint32_t flushed = r.u32_le();
    const std::uint64_t digest = r.u64_le();
    if (!r.ok()) return;
    ++stats_.heartbeats_received;
    last_heartbeat_at_ = engine_.now();
    remote_epoch_ = epoch;
    const std::uint32_t lag = flushed > applied_seq_ ? flushed - applied_seq_ : 0;
    stats_.lag_last = lag;
    stats_.lag_max = std::max(stats_.lag_max, lag);
    if (flushed == applied_seq_) {
      // Fully caught up at a sequence point: the digests must be
      // byte-equal. A mismatch means replication diverged — drills assert
      // this counter stays zero.
      ++stats_.digests_checked;
      if (digest != backup_.state_digest()) ++stats_.digest_mismatches;
    }
    return;
  }
  if (type != kDgramRecords) return;
  remote_epoch_ = std::max(remote_epoch_, epoch);
  while (r.remaining() > 0) {
    const std::uint32_t rep_seq = r.u32_le();
    const std::uint8_t kind = r.u8();
    const auto at_ps = static_cast<std::int64_t>(r.u64_le());
    const std::uint32_t session_id = r.u32_le();
    const std::uint16_t len = r.u16_le();
    const auto body = r.bytes(len);
    if (!r.ok()) return;  // truncated datagram
    if (rep_seq <= applied_seq_) {
      ++stats_.records_stale;  // retransmit overlap with in-flight originals
      continue;
    }
    if (rep_seq != applied_seq_ + 1) {
      ++stats_.records_gapped;  // lost predecessor; wait for the NAK path
      continue;
    }
    apply_record(kind, session_id, at_ps, body);
    ++applied_seq_;
    ++stats_.records_applied;
  }
}

void ReplicaApplier::status_tick() {
  // Runs forever — after promotion this stream carries the new epoch to a
  // healed stale primary, which fences itself on receipt.
  std::vector<std::byte> out;
  out.reserve(13);
  net::WireWriter w{out};
  w.u8(kDgramStatus);
  w.u64_le(epoch_);
  w.u32_le(applied_seq_);
  stack_->send_udp(config_.peer_mac, config_.peer_ip, config_.local_port, config_.peer_port, out);
  ++stats_.statuses_sent;
  engine_.schedule_in(kStatusInterval, [this] { status_tick(); });
}

void ReplicaApplier::register_metrics(telemetry::Registry& registry,
                                      const std::string& prefix) const {
  registry.gauge(prefix + ".datagrams_received",
                 [this] { return static_cast<double>(stats_.datagrams_received); });
  registry.gauge(prefix + ".records_applied",
                 [this] { return static_cast<double>(stats_.records_applied); });
  registry.gauge(prefix + ".records_stale",
                 [this] { return static_cast<double>(stats_.records_stale); });
  registry.gauge(prefix + ".records_gapped",
                 [this] { return static_cast<double>(stats_.records_gapped); });
  registry.gauge(prefix + ".heartbeats_received",
                 [this] { return static_cast<double>(stats_.heartbeats_received); });
  registry.gauge(prefix + ".stale_epoch_dropped",
                 [this] { return static_cast<double>(stats_.stale_epoch_dropped); });
  registry.gauge(prefix + ".digests_checked",
                 [this] { return static_cast<double>(stats_.digests_checked); });
  registry.gauge(prefix + ".digest_mismatches",
                 [this] { return static_cast<double>(stats_.digest_mismatches); });
  registry.gauge(prefix + ".statuses_sent",
                 [this] { return static_cast<double>(stats_.statuses_sent); });
  registry.gauge(prefix + ".lag_last", [this] { return static_cast<double>(stats_.lag_last); });
  registry.gauge(prefix + ".lag_max", [this] { return static_cast<double>(stats_.lag_max); });
  registry.gauge(prefix + ".epoch", [this] { return static_cast<double>(epoch_); });
}

}  // namespace tsn::exchange
