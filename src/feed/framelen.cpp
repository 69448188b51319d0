#include "feed/framelen.hpp"

#include <array>

#include "net/headers.hpp"

namespace tsn::feed {

FeedProfile exchange_a_profile() {
  FeedProfile p;
  p.name = "Exchange A";
  p.add_weight = 0.40;
  p.execute_weight = 0.14;
  p.reduce_weight = 0.05;
  p.modify_weight = 0.20;
  p.delete_weight = 0.09;
  p.trade_weight = 0.12;
  p.long_form_fraction = 0.60;
  p.multi_message_probability = 0.18;
  p.pack_continue_probability = 0.40;
  p.burst_probability = 0.004;
  p.mtu_payload = 1468;  // 1468 + 42 headers + 4 FCS = 1514 on the wire
  return p;
}

FeedProfile exchange_b_profile() {
  FeedProfile p;
  p.name = "Exchange B";
  p.add_weight = 0.34;
  p.execute_weight = 0.10;
  p.reduce_weight = 0.12;
  p.modify_weight = 0.04;
  p.delete_weight = 0.36;
  p.trade_weight = 0.04;
  p.long_form_fraction = 0.10;
  p.multi_message_probability = 0.12;
  p.pack_continue_probability = 0.65;
  p.burst_probability = 0.025;
  p.mtu_payload = 1021;  // caps the wire frame at 1067
  return p;
}

FeedProfile exchange_c_profile() {
  FeedProfile p;
  p.name = "Exchange C";
  // Exchange C's native format has no standalone delete/reduce messages
  // (deletes ride as zero-quantity modifies), so its minimum frame is the
  // 27-byte modify: 8 + 27 + 42 + 4 = 81 bytes on the wire.
  p.add_weight = 0.40;
  p.execute_weight = 0.12;
  p.reduce_weight = 0.0;
  p.modify_weight = 0.26;
  p.delete_weight = 0.0;
  p.trade_weight = 0.22;
  p.long_form_fraction = 0.85;
  p.multi_message_probability = 0.40;
  p.pack_continue_probability = 0.55;
  p.burst_probability = 0.02;
  p.mtu_payload = 1396;  // caps the wire frame at 1442
  return p;
}

FrameLengthSampler::FrameLengthSampler(FeedProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      rng_(seed),
      universe_(512, seed ^ 0x5eedULL),
      builder_(1, profile_.mtu_payload,
               [this](std::vector<std::byte> payload, const proto::pitch::UnitHeader&) {
                 pending_payloads_.push_back(std::move(payload));
               }) {}

proto::pitch::Message FrameLengthSampler::random_message() {
  const std::array<double, 6> weights{profile_.add_weight,    profile_.execute_weight,
                                      profile_.reduce_weight, profile_.modify_weight,
                                      profile_.delete_weight, profile_.trade_weight};
  const auto& inst = universe_.at(rng_.weighted_index(universe_.weights()));
  const auto offset = static_cast<std::uint32_t>(rng_.next_below(1'000'000'000));
  switch (rng_.weighted_index(weights)) {
    case 0: {
      proto::pitch::AddOrder m;
      m.time_offset_ns = offset;
      m.order_id = next_order_id_++;
      m.side = rng_.bernoulli(0.5) ? proto::Side::kBuy : proto::Side::kSell;
      m.symbol = inst.symbol;
      if (rng_.bernoulli(profile_.long_form_fraction)) {
        m.quantity = static_cast<proto::Quantity>(rng_.uniform_int(1, 2'000)) * 100;
        m.price = inst.reference_price + rng_.uniform_int(-500, 500) * 100;
      } else {
        // Short form: price under $6.5535 and size under 65536.
        m.quantity = static_cast<proto::Quantity>(rng_.uniform_int(1, 600)) * 100;
        m.price = rng_.uniform_int(1, 60'000);
      }
      return m;
    }
    case 1: {
      proto::pitch::OrderExecuted m;
      m.time_offset_ns = offset;
      m.order_id = static_cast<proto::OrderId>(rng_.uniform_int(1, 1'000'000));
      m.executed_quantity = static_cast<proto::Quantity>(rng_.uniform_int(1, 50)) * 100;
      m.execution_id = next_order_id_++;
      return m;
    }
    case 2: {
      proto::pitch::ReduceSize m;
      m.time_offset_ns = offset;
      m.order_id = static_cast<proto::OrderId>(rng_.uniform_int(1, 1'000'000));
      m.cancelled_quantity = static_cast<proto::Quantity>(rng_.uniform_int(1, 50)) * 100;
      return m;
    }
    case 3: {
      proto::pitch::ModifyOrder m;
      m.time_offset_ns = offset;
      m.order_id = static_cast<proto::OrderId>(rng_.uniform_int(1, 1'000'000));
      m.quantity = static_cast<proto::Quantity>(rng_.uniform_int(1, 100)) * 100;
      m.price = inst.reference_price + rng_.uniform_int(-500, 500) * 100;
      return m;
    }
    case 4: {
      proto::pitch::DeleteOrder m;
      m.time_offset_ns = offset;
      m.order_id = static_cast<proto::OrderId>(rng_.uniform_int(1, 1'000'000));
      return m;
    }
    default: {
      proto::pitch::Trade m;
      m.time_offset_ns = offset;
      m.order_id = static_cast<proto::OrderId>(rng_.uniform_int(1, 1'000'000));
      m.side = rng_.bernoulli(0.5) ? proto::Side::kBuy : proto::Side::kSell;
      m.quantity = static_cast<proto::Quantity>(rng_.uniform_int(1, 50)) * 100;
      m.symbol = inst.symbol;
      m.price = inst.reference_price;
      m.execution_id = next_order_id_++;
      return m;
    }
  }
}

void FrameLengthSampler::generate_datagrams() {
  // Occasional clock tick message, as real feeds interleave Time messages.
  if (++messages_since_tick_ > 500) {
    messages_since_tick_ = 0;
    builder_.append(proto::pitch::Time{clock_seconds_++});
  }
  std::size_t count = 1;
  if (rng_.bernoulli(profile_.burst_probability)) {
    // Burst: pack until the builder has flushed at least two full frames.
    count = 2 * profile_.mtu_payload / 30;
  } else if (rng_.bernoulli(profile_.multi_message_probability)) {
    while (rng_.bernoulli(profile_.pack_continue_probability) && count < 40) ++count;
    ++count;
  }
  for (std::size_t i = 0; i < count; ++i) builder_.append(random_message());
  builder_.flush();
}

std::vector<std::byte> FrameLengthSampler::next_frame() {
  while (pending_payloads_.empty()) generate_datagrams();
  auto payload = std::move(pending_payloads_.front());
  pending_payloads_.pop_front();
  return net::build_multicast_frame(net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1},
                                    net::Ipv4Addr{239, 100, 0, 1}, 30001, payload);
}


}  // namespace tsn::feed
