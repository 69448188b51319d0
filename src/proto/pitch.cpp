#include "proto/pitch.hpp"

#include <stdexcept>
#include <utility>

#include "core/check.hpp"

namespace tsn::proto::pitch {

namespace {

constexpr std::size_t kTimeSize = 6;
constexpr std::size_t kAddShortSize = 26;
constexpr std::size_t kAddLongSize = 34;
constexpr std::size_t kExecutedSize = 26;
constexpr std::size_t kReduceSize_ = 18;
constexpr std::size_t kModifySize = 27;
constexpr std::size_t kDeleteSize = 14;
constexpr std::size_t kTradeSize = 41;
constexpr std::size_t kSnapshotBeginSize = 7;
constexpr std::size_t kSnapshotEndSize = 7;

void write_symbol(net::WireWriter& w, const Symbol& symbol) {
  w.ascii(std::string_view{symbol.raw().data(), Symbol::kWidth}, Symbol::kWidth);
}

}  // namespace

std::size_t encoded_size(const Message& message) noexcept {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Time>) {
          return kTimeSize;
        } else if constexpr (std::is_same_v<T, AddOrder>) {
          return m.fits_short_form() ? kAddShortSize : kAddLongSize;
        } else if constexpr (std::is_same_v<T, OrderExecuted>) {
          return kExecutedSize;
        } else if constexpr (std::is_same_v<T, ReduceSize>) {
          return kReduceSize_;
        } else if constexpr (std::is_same_v<T, ModifyOrder>) {
          return kModifySize;
        } else if constexpr (std::is_same_v<T, DeleteOrder>) {
          return kDeleteSize;
        } else if constexpr (std::is_same_v<T, SnapshotBegin>) {
          return kSnapshotBeginSize;
        } else if constexpr (std::is_same_v<T, SnapshotEnd>) {
          return kSnapshotEndSize;
        } else {
          static_assert(std::is_same_v<T, Trade>);
          return kTradeSize;
        }
      },
      message);
}

void encode(const Message& message, net::WireWriter& w) {
  const std::size_t size_before = w.size();
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Time>) {
          w.u8(kTimeSize);
          w.u8(static_cast<std::uint8_t>(MessageType::kTime));
          w.u32_le(m.seconds_since_midnight);
        } else if constexpr (std::is_same_v<T, AddOrder>) {
          if (m.fits_short_form()) {
            w.u8(kAddShortSize);
            w.u8(static_cast<std::uint8_t>(MessageType::kAddOrderShort));
            w.u32_le(m.time_offset_ns);
            w.u64_le(m.order_id);
            w.u8(static_cast<std::uint8_t>(m.side));
            w.u16_le(static_cast<std::uint16_t>(m.quantity));
            write_symbol(w, m.symbol);
            w.u16_le(static_cast<std::uint16_t>(m.price));
            w.u8(m.flags);
          } else {
            w.u8(kAddLongSize);
            w.u8(static_cast<std::uint8_t>(MessageType::kAddOrderLong));
            w.u32_le(m.time_offset_ns);
            w.u64_le(m.order_id);
            w.u8(static_cast<std::uint8_t>(m.side));
            w.u32_le(m.quantity);
            write_symbol(w, m.symbol);
            w.u64_le(static_cast<std::uint64_t>(m.price));
            w.u8(m.flags);
          }
        } else if constexpr (std::is_same_v<T, OrderExecuted>) {
          w.u8(kExecutedSize);
          w.u8(static_cast<std::uint8_t>(MessageType::kOrderExecuted));
          w.u32_le(m.time_offset_ns);
          w.u64_le(m.order_id);
          w.u32_le(m.executed_quantity);
          w.u64_le(m.execution_id);
        } else if constexpr (std::is_same_v<T, ReduceSize>) {
          w.u8(kReduceSize_);
          w.u8(static_cast<std::uint8_t>(MessageType::kReduceSize));
          w.u32_le(m.time_offset_ns);
          w.u64_le(m.order_id);
          w.u32_le(m.cancelled_quantity);
        } else if constexpr (std::is_same_v<T, ModifyOrder>) {
          w.u8(kModifySize);
          w.u8(static_cast<std::uint8_t>(MessageType::kModifyOrder));
          w.u32_le(m.time_offset_ns);
          w.u64_le(m.order_id);
          w.u32_le(m.quantity);
          w.u64_le(static_cast<std::uint64_t>(m.price));
          w.u8(m.flags);
        } else if constexpr (std::is_same_v<T, DeleteOrder>) {
          w.u8(kDeleteSize);
          w.u8(static_cast<std::uint8_t>(MessageType::kDeleteOrder));
          w.u32_le(m.time_offset_ns);
          w.u64_le(m.order_id);
        } else if constexpr (std::is_same_v<T, SnapshotBegin>) {
          w.u8(kSnapshotBeginSize);
          w.u8(static_cast<std::uint8_t>(MessageType::kSnapshotBegin));
          w.u8(m.unit);
          w.u32_le(m.next_sequence);
        } else if constexpr (std::is_same_v<T, SnapshotEnd>) {
          w.u8(kSnapshotEndSize);
          w.u8(static_cast<std::uint8_t>(MessageType::kSnapshotEnd));
          w.u8(m.unit);
          w.u32_le(m.order_count);
        } else {
          static_assert(std::is_same_v<T, Trade>);
          w.u8(kTradeSize);
          w.u8(static_cast<std::uint8_t>(MessageType::kTrade));
          w.u32_le(m.time_offset_ns);
          w.u64_le(m.order_id);
          w.u8(static_cast<std::uint8_t>(m.side));
          w.u32_le(m.quantity);
          write_symbol(w, m.symbol);
          w.u64_le(static_cast<std::uint64_t>(m.price));
          w.u64_le(m.execution_id);
        }
      },
      message);
  TSN_DCHECK(w.size() - size_before == encoded_size(message),
             "encoded PITCH message must match its declared length byte");
}

FrameBuilder::FrameBuilder(std::uint8_t unit, std::size_t max_payload, Sink sink)
    : unit_(unit), max_payload_(max_payload), sink_(std::move(sink)) {
  if (max_payload_ < kUnitHeaderSize + kTradeSize) {
    throw std::invalid_argument{"max_payload too small for any message"};
  }
  begin_frame();
}

void FrameBuilder::begin_frame() {
  buffer_.clear();
  net::WireWriter w{buffer_};
  w.u16_le(0);  // length, patched at flush
  w.u8(0);      // count, patched at flush
  w.u8(unit_);
  w.u32_le(sequence_);
}

void FrameBuilder::append(const Message& message) {
  if (buffer_.size() + encoded_size(message) > max_payload_ || count_ == 0xff) flush();
  TSN_DCHECK(buffer_.size() + encoded_size(message) <= max_payload_,
             "a freshly flushed frame must have room for any single message");
  net::WireWriter w{buffer_};
  encode(message, w);
  ++count_;
  ++sequence_;
}

void FrameBuilder::flush() {
  if (count_ == 0) return;
  TSN_ASSERT(buffer_.size() >= kUnitHeaderSize && buffer_.size() <= 0xffff,
             "unit frame length must fit its 16-bit length field");
  net::WireWriter w{buffer_};
  w.patch_u16_le(0, static_cast<std::uint16_t>(buffer_.size()));
  buffer_[2] = static_cast<std::byte>(count_);
  UnitHeader header;
  header.length = static_cast<std::uint16_t>(buffer_.size());
  header.count = static_cast<std::uint8_t>(count_);
  header.unit = unit_;
  header.sequence = sequence_ - static_cast<std::uint32_t>(count_);
  sink_(std::move(buffer_), header);
  buffer_ = {};
  count_ = 0;
  begin_frame();
}

// tsn-lint: hotpath
std::optional<UnitHeader> peek_header(std::span<const std::byte> payload) {
  net::WireReader r{payload};
  UnitHeader h;
  h.length = r.u16_le();
  h.count = r.u8();
  h.unit = r.u8();
  h.sequence = r.u32_le();
  if (!r.ok() || h.length < kUnitHeaderSize || h.length > payload.size()) return std::nullopt;
  return h;
}

namespace {

// Straight-line little-endian loads for the batch decoder. Bounds are
// established once per message (the length byte is checked against the
// datagram end before any field load), so these are plain unaligned
// byte-assembly loads the compiler folds into single moves.
constexpr std::uint8_t load_u8(const std::byte* p) noexcept {
  return std::to_integer<std::uint8_t>(*p);
}

constexpr std::uint16_t load_u16_le(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>(std::to_integer<std::uint16_t>(p[0]) |
                                    (std::to_integer<std::uint16_t>(p[1]) << 8));
}

constexpr std::uint32_t load_u32_le(const std::byte* p) noexcept {
  return std::to_integer<std::uint32_t>(p[0]) |
         (std::to_integer<std::uint32_t>(p[1]) << 8) |
         (std::to_integer<std::uint32_t>(p[2]) << 16) |
         (std::to_integer<std::uint32_t>(p[3]) << 24);
}

constexpr std::uint64_t load_u64_le(const std::byte* p) noexcept {
  return static_cast<std::uint64_t>(load_u32_le(p)) |
         (static_cast<std::uint64_t>(load_u32_le(p + 4)) << 32);
}

Symbol load_symbol(const std::byte* p) noexcept {
  char buf[Symbol::kWidth];
  for (std::size_t i = 0; i < Symbol::kWidth; ++i) buf[i] = std::to_integer<char>(p[i]);
  return Symbol{std::string_view{buf, Symbol::kWidth}};
}

}  // namespace

// tsn-lint: hotpath
bool decode_batch(std::span<const std::byte> payload, DecodedBatch& out) {
  out.count = 0;
  const auto header = peek_header(payload);
  if (!header) return false;
  out.header = *header;
  const std::size_t n = header->count;
  // Columns keep capacity across datagrams (count <= 255), so a warm buffer
  // never reallocates here.
  out.kind.resize(n);
  out.u32a.resize(n);
  out.order_id.resize(n);
  out.side.resize(n);
  out.quantity.resize(n);
  out.price.resize(n);
  out.execution_id.resize(n);
  out.symbol.resize(n);
  out.flags.resize(n);
  const std::byte* p = payload.data() + kUnitHeaderSize;
  const std::byte* const end = payload.data() + header->length;
  for (std::size_t i = 0; i < n; ++i) {
    if (end - p < 2) return false;
    const std::uint8_t length = load_u8(p);
    const std::uint8_t type = load_u8(p + 1);
    if (length > end - p) return false;
    switch (static_cast<MessageType>(type)) {
      case MessageType::kTime:
        if (length != kTimeSize) return false;
        out.kind[i] = DecodedKind::kTime;
        out.u32a[i] = load_u32_le(p + 2);
        break;
      case MessageType::kAddOrderShort:
        if (length != kAddShortSize) return false;
        out.kind[i] = DecodedKind::kAddOrder;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        out.side[i] = static_cast<Side>(load_u8(p + 14));
        out.quantity[i] = load_u16_le(p + 15);
        out.symbol[i] = load_symbol(p + 17);
        out.price[i] = load_u16_le(p + 23);
        out.flags[i] = load_u8(p + 25);
        break;
      case MessageType::kAddOrderLong:
        if (length != kAddLongSize) return false;
        out.kind[i] = DecodedKind::kAddOrder;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        out.side[i] = static_cast<Side>(load_u8(p + 14));
        out.quantity[i] = load_u32_le(p + 15);
        out.symbol[i] = load_symbol(p + 19);
        out.price[i] = static_cast<Price>(load_u64_le(p + 25));
        out.flags[i] = load_u8(p + 33);
        break;
      case MessageType::kOrderExecuted:
        if (length != kExecutedSize) return false;
        out.kind[i] = DecodedKind::kOrderExecuted;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        out.quantity[i] = load_u32_le(p + 14);
        out.execution_id[i] = load_u64_le(p + 18);
        break;
      case MessageType::kReduceSize:
        if (length != kReduceSize_) return false;
        out.kind[i] = DecodedKind::kReduceSize;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        out.quantity[i] = load_u32_le(p + 14);
        break;
      case MessageType::kModifyOrder:
        if (length != kModifySize) return false;
        out.kind[i] = DecodedKind::kModifyOrder;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        out.quantity[i] = load_u32_le(p + 14);
        out.price[i] = static_cast<Price>(load_u64_le(p + 18));
        out.flags[i] = load_u8(p + 26);
        break;
      case MessageType::kDeleteOrder:
        if (length != kDeleteSize) return false;
        out.kind[i] = DecodedKind::kDeleteOrder;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        break;
      case MessageType::kTrade:
        if (length != kTradeSize) return false;
        out.kind[i] = DecodedKind::kTrade;
        out.u32a[i] = load_u32_le(p + 2);
        out.order_id[i] = load_u64_le(p + 6);
        out.side[i] = static_cast<Side>(load_u8(p + 14));
        out.quantity[i] = load_u32_le(p + 15);
        out.symbol[i] = load_symbol(p + 19);
        out.price[i] = static_cast<Price>(load_u64_le(p + 25));
        out.execution_id[i] = load_u64_le(p + 33);
        break;
      case MessageType::kSnapshotBegin:
        if (length != kSnapshotBeginSize) return false;
        out.kind[i] = DecodedKind::kSnapshotBegin;
        out.flags[i] = load_u8(p + 2);
        out.u32a[i] = load_u32_le(p + 3);
        break;
      case MessageType::kSnapshotEnd:
        if (length != kSnapshotEndSize) return false;
        out.kind[i] = DecodedKind::kSnapshotEnd;
        out.flags[i] = load_u8(p + 2);
        out.u32a[i] = load_u32_le(p + 3);
        break;
      default:
        return false;
    }
    p += length;
    out.count = i + 1;
  }
  return p == end;
}

}  // namespace tsn::proto::pitch
