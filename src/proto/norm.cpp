#include "proto/norm.hpp"

#include <stdexcept>
#include <utility>

#include "core/check.hpp"

namespace tsn::proto::norm {

void encode(const Update& update, net::WireWriter& w) {
  w.u8(static_cast<std::uint8_t>(update.kind));
  w.u8(update.exchange_id);
  w.u8(static_cast<std::uint8_t>(update.side));
  w.u8(update.flags);
  w.ascii(std::string_view{update.symbol.raw().data(), Symbol::kWidth}, Symbol::kWidth);
  w.u64_le(static_cast<std::uint64_t>(update.price));
  w.u32_le(update.quantity);
  w.u64_le(update.order_id);
  w.u64_le(update.exchange_time_ns);
}

std::optional<Update> decode_one(net::WireReader& r) {
  Update u;
  u.kind = static_cast<UpdateKind>(r.u8());
  u.exchange_id = r.u8();
  u.side = static_cast<Side>(r.u8());
  u.flags = r.u8();
  u.symbol = Symbol{r.ascii(Symbol::kWidth)};
  u.price = static_cast<Price>(r.u64_le());
  u.quantity = r.u32_le();
  u.order_id = r.u64_le();
  u.exchange_time_ns = r.u64_le();
  if (!r.ok()) return std::nullopt;
  if (static_cast<std::uint8_t>(u.kind) < 1 || static_cast<std::uint8_t>(u.kind) > 5) {
    return std::nullopt;
  }
  return u;
}

DatagramBuilder::DatagramBuilder(std::uint16_t partition, std::size_t max_payload, Sink sink)
    : partition_(partition), max_payload_(max_payload), sink_(std::move(sink)) {
  if (max_payload_ < kHeaderSize + kMessageSize) {
    throw std::invalid_argument{"max_payload too small"};
  }
  begin();
}

void DatagramBuilder::begin() {
  buffer_.clear();
  count_ = 0;
  net::WireWriter w{buffer_};
  w.u16_le(kMagic);
  w.u16_le(partition_);
  w.u16_le(0);  // count, patched
  w.u32_le(sequence_);
  w.u64_le(0);  // send time, patched
}

void DatagramBuilder::append(const Update& update, std::uint64_t now_ns) {
  if (buffer_.size() + kMessageSize > max_payload_ || count_ == 0xffff) flush();
  TSN_DCHECK(buffer_.size() + kMessageSize <= max_payload_,
             "a freshly flushed datagram must have room for one update");
  if (count_ == 0) first_time_ns_ = now_ns;
  net::WireWriter w{buffer_};
  encode(update, w);
  ++count_;
  ++sequence_;
}

void DatagramBuilder::flush() {
  if (count_ == 0) return;
  TSN_ASSERT(buffer_.size() >= kHeaderSize,
             "datagram buffer must hold the full header before patching");
  net::WireWriter w{buffer_};
  w.patch_u16_le(4, static_cast<std::uint16_t>(count_));
  // Patch send time (bytes 10..17, little-endian).
  for (int i = 0; i < 8; ++i) {
    buffer_[10 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((first_time_ns_ >> (8 * i)) & 0xff);
  }
  sink_(buffer_);
  begin();
}

std::optional<DatagramHeader> peek_header(std::span<const std::byte> payload) {
  net::WireReader r{payload};
  if (r.u16_le() != kMagic) return std::nullopt;
  DatagramHeader h;
  h.partition = r.u16_le();
  h.count = r.u16_le();
  h.sequence = r.u32_le();
  h.send_time_ns = r.u64_le();
  if (!r.ok()) return std::nullopt;
  if (payload.size() < kHeaderSize + h.count * kMessageSize) return std::nullopt;
  return h;
}

bool for_each_update(std::span<const std::byte> payload,
                     const std::function<void(const Update&)>& fn) {
  const auto header = peek_header(payload);
  if (!header) return false;
  net::WireReader r{payload.subspan(kHeaderSize)};
  for (std::uint16_t i = 0; i < header->count; ++i) {
    auto update = decode_one(r);
    if (!update) return false;
    fn(*update);
  }
  return true;
}

}  // namespace tsn::proto::norm
