#include "trading/arbiter.hpp"

#include <utility>

#include "core/check.hpp"
#include "proto/pitch.hpp"

namespace tsn::trading {

LineArbiter::LineArbiter(sim::Scheduler& engine, ArbiterConfig config)
    : engine_(engine), config_(std::move(config)) {
  // Kernel-bypass arbitration hop (same order as the normalizer's, §3).
  constexpr sim::Duration kSoftwareLatency = sim::nanos(std::int64_t{400});
  host_ = std::make_unique<net::Host>(engine_, config_.name, kSoftwareLatency);
  a_nic_ = &host_->add_nic("a-in", config_.a_mac, config_.a_ip);
  b_nic_ = &host_->add_nic("b-in", config_.b_mac, config_.b_ip);
  out_nic_ = &host_->add_nic("out", config_.out_mac, config_.out_ip);
  a_stack_ = std::make_unique<net::NetStack>(*a_nic_);
  b_stack_ = std::make_unique<net::NetStack>(*b_nic_);
  out_stack_ = std::make_unique<net::NetStack>(*out_nic_);
  a_responder_ = std::make_unique<mcast::IgmpResponder>(*a_stack_);
  b_responder_ = std::make_unique<mcast::IgmpResponder>(*b_stack_);

  a_stack_->bind_udp(config_.feed_port,
                     [this](const net::Ipv4Header&, const net::UdpHeader&,
                            std::span<const std::byte> payload, sim::Time) {
                       on_datagram(Line::kA, payload);
                     });
  b_stack_->bind_udp(config_.feed_port,
                     [this](const net::Ipv4Header&, const net::UdpHeader&,
                            std::span<const std::byte> payload, sim::Time) {
                       on_datagram(Line::kB, payload);
                     });
}

LineArbiter::~LineArbiter() = default;

void LineArbiter::join_feeds() {
  for (const auto group : config_.a_groups) a_responder_->join(group);
  for (const auto group : config_.b_groups) b_responder_->join(group);
}

// tsn-lint: hotpath
void LineArbiter::on_datagram(Line line, std::span<const std::byte> payload) {
  const auto header = proto::pitch::peek_header(payload);
  if (!header) {
    ++stats_.malformed;
    return;
  }
  if (line == Line::kA) {
    ++stats_.datagrams_a;
  } else {
    ++stats_.datagrams_b;
  }
  UnitState& state = units_[header->unit];
  if (!state.synced) {
    // First datagram ever seen for the unit defines the stream start.
    state.synced = true;
    state.next_expected = header->sequence;
  }
  const std::uint32_t end = header->sequence + header->count;
  if (end <= state.next_expected) {
    // Entirely old: the other line (or a declared gap) already covered it.
    // Dropping here is a correctness requirement, not an optimisation — the
    // downstream normalizer rewinds its expected sequence on any datagram
    // it sees, so forwarding a stale copy would manufacture a gap.
    ++stats_.duplicates;
    return;
  }
  if (header->sequence <= state.next_expected) {
    // In sequence (boundaries are identical on both lines, so in practice
    // this is equality). Forward and pull through anything it unblocked.
    forward(header->unit, header->sequence, payload);
    state.next_expected = end;
    drain(header->unit, state);
    return;
  }
  // Ahead of sequence: the lagging line may still deliver the hole. Park
  // the datagram and start the dual-gap clock if it isn't already running.
  // tsn-lint: allow(hotpath-alloc) the parked copy outlives the rx buffer; the gap window bounds it
  std::vector<std::byte> parked(payload.begin(), payload.end());
  const auto [it, inserted] = state.held.emplace(header->sequence, std::move(parked));
  if (inserted) {
    ++stats_.held;
  } else {
    ++stats_.duplicates;
  }
  arm_gap_timer(header->unit, state);
}

// tsn-lint: hotpath
void LineArbiter::forward(std::uint8_t unit, std::uint32_t sequence,
                          std::span<const std::byte> payload) {
  ++stats_.forwarded;
  if (tap_) tap_(unit, sequence, payload);
  out_stack_->send_multicast(out_group(unit), config_.out_port, payload);
}

// tsn-lint: hotpath
void LineArbiter::drain(std::uint8_t unit, UnitState& state) {
  while (!state.held.empty()) {
    const auto it = state.held.begin();
    const auto header = proto::pitch::peek_header(it->second);
    TSN_DCHECK(header.has_value(), "held datagrams were validated on arrival");
    if (!header || it->first > state.next_expected) break;
    const std::uint32_t end = it->first + header->count;
    if (end > state.next_expected) {
      forward(unit, it->first, it->second);
      state.next_expected = end;
    } else {
      ++stats_.duplicates;  // a declared gap already advanced past it
    }
    state.held.erase(it);
  }
}

void LineArbiter::arm_gap_timer(std::uint8_t unit, UnitState& state) {
  if (state.timer_armed) return;
  state.timer_armed = true;
  engine_.schedule_in(config_.gap_timeout, [this, unit] { on_gap_timeout(unit); });
}

void LineArbiter::on_gap_timeout(std::uint8_t unit) {
  UnitState& state = units_[unit];
  state.timer_armed = false;
  if (state.held.empty()) return;  // the lagging line filled the hole in time
  // Neither line produced the range [next_expected, first_held): a true
  // dual gap. Advance past it; the downstream normalizer sees the jump and
  // falls back to snapshot recovery.
  const std::uint32_t first_held = state.held.begin()->first;
  TSN_DCHECK(first_held > state.next_expected,
             "held datagrams ahead of next_expected are drained eagerly");
  ++stats_.dual_gaps;
  stats_.sequences_lost += first_held - state.next_expected;
  state.next_expected = first_held;
  drain(unit, state);
  // Non-contiguous holds: the remainder gets a fresh timeout window.
  if (!state.held.empty()) arm_gap_timer(unit, state);
}

void LineArbiter::register_metrics(telemetry::Registry& registry,
                                   const std::string& prefix) const {
  registry.gauge(prefix + ".datagrams_a",
                 [this] { return static_cast<double>(stats_.datagrams_a); });
  registry.gauge(prefix + ".datagrams_b",
                 [this] { return static_cast<double>(stats_.datagrams_b); });
  registry.gauge(prefix + ".forwarded", [this] { return static_cast<double>(stats_.forwarded); });
  registry.gauge(prefix + ".duplicates",
                 [this] { return static_cast<double>(stats_.duplicates); });
  registry.gauge(prefix + ".held", [this] { return static_cast<double>(stats_.held); });
  registry.gauge(prefix + ".dual_gaps", [this] { return static_cast<double>(stats_.dual_gaps); });
  registry.gauge(prefix + ".sequences_lost",
                 [this] { return static_cast<double>(stats_.sequences_lost); });
  registry.gauge(prefix + ".malformed", [this] { return static_cast<double>(stats_.malformed); });
}

}  // namespace tsn::trading
