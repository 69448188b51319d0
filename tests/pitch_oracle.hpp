// Scalar reference decoder for TsnPitch — the test oracle for
// `proto::pitch::decode_batch`.
//
// It reads each field through a bounds-checked `net::WireReader` and builds
// one `Message` variant per message: slow, but obviously correct against the
// wire layout in proto/pitch.hpp. The fuzz suite (test_proto_fuzz.cpp)
// drives both decoders over valid, bit-flipped and truncated datagrams and
// requires the same verdict, the same valid prefix and the same messages.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/wire.hpp"
#include "proto/pitch.hpp"

namespace tsn::proto::pitch::oracle {

// Decodes one message and advances the reader past it. nullopt on malformed
// or unknown-type input.
inline std::optional<Message> decode_one(net::WireReader& r) {
  const std::uint8_t length = r.u8();
  const std::uint8_t type = r.u8();
  if (!r.ok()) return std::nullopt;
  auto symbol = [&r] { return Symbol{r.ascii(Symbol::kWidth)}; };
  auto done = [&r](auto m) -> std::optional<Message> {
    if (!r.ok()) return std::nullopt;
    return Message{m};
  };
  switch (static_cast<MessageType>(type)) {
    case MessageType::kTime: {
      if (length != 6) return std::nullopt;
      Time m;
      m.seconds_since_midnight = r.u32_le();
      return done(m);
    }
    case MessageType::kAddOrderShort: {
      if (length != 26) return std::nullopt;
      AddOrder m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      m.side = static_cast<Side>(r.u8());
      m.quantity = r.u16_le();
      m.symbol = symbol();
      m.price = r.u16_le();
      m.flags = r.u8();
      return done(m);
    }
    case MessageType::kAddOrderLong: {
      if (length != 34) return std::nullopt;
      AddOrder m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      m.side = static_cast<Side>(r.u8());
      m.quantity = r.u32_le();
      m.symbol = symbol();
      m.price = static_cast<Price>(r.u64_le());
      m.flags = r.u8();
      return done(m);
    }
    case MessageType::kOrderExecuted: {
      if (length != 26) return std::nullopt;
      OrderExecuted m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      m.executed_quantity = r.u32_le();
      m.execution_id = r.u64_le();
      return done(m);
    }
    case MessageType::kReduceSize: {
      if (length != 18) return std::nullopt;
      ReduceSize m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      m.cancelled_quantity = r.u32_le();
      return done(m);
    }
    case MessageType::kModifyOrder: {
      if (length != 27) return std::nullopt;
      ModifyOrder m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      m.quantity = r.u32_le();
      m.price = static_cast<Price>(r.u64_le());
      m.flags = r.u8();
      return done(m);
    }
    case MessageType::kDeleteOrder: {
      if (length != 14) return std::nullopt;
      DeleteOrder m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      return done(m);
    }
    case MessageType::kTrade: {
      if (length != 41) return std::nullopt;
      Trade m;
      m.time_offset_ns = r.u32_le();
      m.order_id = r.u64_le();
      m.side = static_cast<Side>(r.u8());
      m.quantity = r.u32_le();
      m.symbol = symbol();
      m.price = static_cast<Price>(r.u64_le());
      m.execution_id = r.u64_le();
      return done(m);
    }
    case MessageType::kSnapshotBegin: {
      if (length != 7) return std::nullopt;
      SnapshotBegin m;
      m.unit = r.u8();
      m.next_sequence = r.u32_le();
      return done(m);
    }
    case MessageType::kSnapshotEnd: {
      if (length != 7) return std::nullopt;
      SnapshotEnd m;
      m.unit = r.u8();
      m.order_count = r.u32_le();
      return done(m);
    }
  }
  return std::nullopt;
}

// Walks a datagram payload, invoking `fn` per message. Returns false on a
// malformed header, message, or trailing bytes inside the header's length;
// `fn` has then been called for the valid prefix.
template <typename Fn>
bool for_each_message(std::span<const std::byte> payload, Fn&& fn) {
  const auto header = peek_header(payload);
  if (!header) return false;
  net::WireReader r{payload.subspan(kUnitHeaderSize, header->length - kUnitHeaderSize)};
  for (std::uint8_t i = 0; i < header->count; ++i) {
    auto message = decode_one(r);
    if (!message) return false;
    fn(*message);
  }
  return r.remaining() == 0;
}

}  // namespace tsn::proto::pitch::oracle
