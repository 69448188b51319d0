#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "telemetry/trace.hpp"

namespace tsn::net {

// 128-bit intermediate for rate arithmetic; __extension__ keeps the GCC
// builtin usable under -Wpedantic.
__extension__ typedef __int128 Int128;

Link::Link(sim::Scheduler& engine, std::string name, LinkConfig config)
    : engine_(engine), name_(std::move(name)), config_(config) {}

void Link::connect_to(Device& destination, PortId destination_port) noexcept {
  destination_ = &destination;
  destination_port_ = destination_port;
}

sim::Duration Link::serialization_delay(std::size_t wire_bytes) const noexcept {
  if (config_.rate_bps == 0) return sim::Duration::zero();
  // picoseconds = bits * 1e12 / rate_bps
  const auto bits = static_cast<std::uint64_t>(wire_bytes) * 8;
  return sim::Duration{
      static_cast<std::int64_t>((static_cast<Int128>(bits) * 1'000'000'000'000) /
                                config_.rate_bps)};
}

sim::Duration Link::current_backlog() const noexcept {
  const sim::Time now = engine_.now();
  return egress_free_at_ > now ? egress_free_at_ - now : sim::Duration::zero();
}

// tsn-lint: hotpath
void Link::transmit(const PacketPtr& packet) {
  assert((destination_ != nullptr || remote_delivery_) && "link not connected");
  if (!admin_up_) {
    ++stats_.frames_dropped_down;
    return;
  }
  const double loss = effective_loss();
  if (loss > 0.0 && rng_.bernoulli(loss)) {
    ++stats_.frames_dropped_loss;
    return;
  }
  const sim::Time now = engine_.now();
  const sim::Duration backlog = current_backlog();
  // Backlog expressed in buffered bytes at line rate; infinite-rate links
  // never queue.
  if (config_.rate_bps != 0) {
    const auto backlog_bytes = static_cast<std::size_t>(
        (static_cast<Int128>(backlog.picos()) * config_.rate_bps) / (8 * 1'000'000'000'000LL));
    if (backlog_bytes + packet->size_bytes() > config_.queue_capacity_bytes) {
      ++stats_.frames_dropped_queue;
      return;
    }
  }
  if (backlog > stats_.max_queue_delay) stats_.max_queue_delay = backlog;
  const sim::Duration ser = serialization_delay(packet->wire_bytes());
  const sim::Time start = now + backlog;
  egress_free_at_ = start + ser;
  const sim::Time arrival = egress_free_at_ + config_.propagation;
  ++stats_.frames_delivered;
  stats_.bytes_delivered += packet->size_bytes();
  // Link span: sender hand-off (including queue wait) to wire arrival, so a
  // path's link + hop spans tile the timeline exactly.
  telemetry::record_span(packet->trace(), name_, config_.span_kind, now, arrival);
  if (remote_delivery_) {
    remote_delivery_(arrival, packet);
    return;
  }
  Device* dst = destination_;
  const PortId port = destination_port_;
  if (dst->schedule_receive(packet, port, arrival, engine_.domain_id())) return;
  engine_.schedule_at(arrival, [dst, port, packet] { dst->receive(packet, port); });
}

}  // namespace tsn::net
