#include "proto/boe.hpp"

#include <cstring>

#include "core/check.hpp"

namespace tsn::proto::boe {

namespace {

template <class>
inline constexpr bool always_false_v = false;

void write_symbol(net::WireWriter& w, const Symbol& symbol) {
  w.ascii(std::string_view{symbol.raw().data(), Symbol::kWidth}, Symbol::kWidth);
}

}  // namespace

MessageType type_of(const Message& message) noexcept {
  return std::visit(
      [](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequest>) return MessageType::kLoginRequest;
        else if constexpr (std::is_same_v<T, LoginAccepted>) return MessageType::kLoginAccepted;
        else if constexpr (std::is_same_v<T, LoginRejected>) return MessageType::kLoginRejected;
        else if constexpr (std::is_same_v<T, Heartbeat>) return MessageType::kHeartbeat;
        else if constexpr (std::is_same_v<T, Logout>) return MessageType::kLogout;
        else if constexpr (std::is_same_v<T, ReplayRequest>) return MessageType::kReplayRequest;
        else if constexpr (std::is_same_v<T, SequenceReset>) return MessageType::kSequenceReset;
        else if constexpr (std::is_same_v<T, NewOrder>) return MessageType::kNewOrder;
        else if constexpr (std::is_same_v<T, CancelOrder>) return MessageType::kCancelOrder;
        else if constexpr (std::is_same_v<T, ModifyOrder>) return MessageType::kModifyOrder;
        else if constexpr (std::is_same_v<T, OrderAccepted>) return MessageType::kOrderAccepted;
        else if constexpr (std::is_same_v<T, OrderRejected>) return MessageType::kOrderRejected;
        else if constexpr (std::is_same_v<T, OrderCancelled>) return MessageType::kOrderCancelled;
        else if constexpr (std::is_same_v<T, OrderModified>) return MessageType::kOrderModified;
        else if constexpr (std::is_same_v<T, CancelRejected>) return MessageType::kCancelRejected;
        else if constexpr (std::is_same_v<T, Fill>) return MessageType::kFill;
        else static_assert(always_false_v<T>);
      },
      message);
}

std::size_t encoded_size(const Message& message) noexcept {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequest>) return kHeaderSize + 12;
        else if constexpr (std::is_same_v<T, LoginAccepted>) return kHeaderSize;
        else if constexpr (std::is_same_v<T, LoginRejected>) return kHeaderSize + 1;
        else if constexpr (std::is_same_v<T, Heartbeat>) return kHeaderSize;
        else if constexpr (std::is_same_v<T, Logout>) return kHeaderSize;
        else if constexpr (std::is_same_v<T, ReplayRequest>) return kHeaderSize + 4;
        else if constexpr (std::is_same_v<T, SequenceReset>) return kHeaderSize + 4;
        else if constexpr (std::is_same_v<T, NewOrder>) return kHeaderSize + 28;
        else if constexpr (std::is_same_v<T, CancelOrder>) return kHeaderSize + 8;
        else if constexpr (std::is_same_v<T, ModifyOrder>) return kHeaderSize + 20;
        else if constexpr (std::is_same_v<T, OrderAccepted>) return kHeaderSize + 24;
        else if constexpr (std::is_same_v<T, OrderRejected>) return kHeaderSize + 9;
        else if constexpr (std::is_same_v<T, OrderCancelled>) return kHeaderSize + 12;
        else if constexpr (std::is_same_v<T, OrderModified>) return kHeaderSize + 20;
        else if constexpr (std::is_same_v<T, CancelRejected>) return kHeaderSize + 9;
        else if constexpr (std::is_same_v<T, Fill>) return kHeaderSize + 32;
        else static_assert(always_false_v<T>);
      },
      message);
}

std::vector<std::byte> encode(const Message& message, std::uint32_t seq) {
  std::vector<std::byte> out;
  out.reserve(encoded_size(message));
  encode_into(message, seq, out);
  return out;
}

// tsn-lint: hotpath
void encode_into(const Message& message, std::uint32_t seq, std::vector<std::byte>& out) {
  const std::size_t base = out.size();
  net::WireWriter w{out};
  w.u16_le(kMagic);
  w.u16_le(static_cast<std::uint16_t>(encoded_size(message)));
  w.u8(static_cast<std::uint8_t>(type_of(message)));
  w.u32_le(seq);
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequest>) {
          w.u32_le(m.session_id);
          w.u64_le(m.token);
        } else if constexpr (std::is_same_v<T, LoginRejected>) {
          w.u8(static_cast<std::uint8_t>(m.reason));
        } else if constexpr (std::is_same_v<T, ReplayRequest>) {
          w.u32_le(m.last_seen_seq);
        } else if constexpr (std::is_same_v<T, SequenceReset>) {
          w.u32_le(m.next_seq);
        } else if constexpr (std::is_same_v<T, NewOrder>) {
          w.u64_le(m.client_order_id);
          w.u8(static_cast<std::uint8_t>(m.side));
          w.u32_le(m.quantity);
          write_symbol(w, m.symbol);
          w.u64_le(static_cast<std::uint64_t>(m.price));
          w.u8(static_cast<std::uint8_t>(m.tif));
        } else if constexpr (std::is_same_v<T, CancelOrder>) {
          w.u64_le(m.client_order_id);
        } else if constexpr (std::is_same_v<T, ModifyOrder>) {
          w.u64_le(m.client_order_id);
          w.u32_le(m.quantity);
          w.u64_le(static_cast<std::uint64_t>(m.price));
        } else if constexpr (std::is_same_v<T, OrderAccepted>) {
          w.u64_le(m.client_order_id);
          w.u64_le(m.exchange_order_id);
          w.u64_le(m.transact_time_ns);
        } else if constexpr (std::is_same_v<T, OrderRejected>) {
          w.u64_le(m.client_order_id);
          w.u8(static_cast<std::uint8_t>(m.reason));
        } else if constexpr (std::is_same_v<T, OrderCancelled>) {
          w.u64_le(m.client_order_id);
          w.u32_le(m.cancelled_quantity);
        } else if constexpr (std::is_same_v<T, OrderModified>) {
          w.u64_le(m.client_order_id);
          w.u32_le(m.quantity);
          w.u64_le(static_cast<std::uint64_t>(m.price));
        } else if constexpr (std::is_same_v<T, CancelRejected>) {
          w.u64_le(m.client_order_id);
          w.u8(static_cast<std::uint8_t>(m.reason));
        } else if constexpr (std::is_same_v<T, Fill>) {
          w.u64_le(m.client_order_id);
          w.u64_le(m.execution_id);
          w.u32_le(m.quantity);
          w.u64_le(static_cast<std::uint64_t>(m.price));
          w.u32_le(m.leaves_quantity);
        }
        // LoginAccepted / Heartbeat / Logout have empty bodies.
      },
      message);
  TSN_DCHECK(out.size() - base == encoded_size(message),
             "encoded BOE message must match its declared length field");
}

std::size_t complete_length(std::span<const std::byte> data) noexcept {
  if (data.size() < 4) return 0;
  net::WireReader r{data};
  const std::uint16_t magic = r.u16_le();
  const std::uint16_t length = r.u16_le();
  if (!r.ok() || magic != kMagic) return 0;
  if (length < kHeaderSize) return 0;
  return length;
}

std::optional<Decoded> decode(std::span<const std::byte> data) {
  const std::size_t length = complete_length(data);
  if (length == 0 || data.size() < length) return std::nullopt;
  net::WireReader r{data.subspan(0, length)};
  r.skip(4);  // magic + length, already validated
  const auto type = static_cast<MessageType>(r.u8());
  const std::uint32_t seq = r.u32_le();
  Decoded out;
  out.seq = seq;
  out.consumed = length;
  switch (type) {
    case MessageType::kLoginRequest: {
      LoginRequest m;
      m.session_id = r.u32_le();
      m.token = r.u64_le();
      out.message = m;
      break;
    }
    case MessageType::kLoginAccepted:
      out.message = LoginAccepted{};
      break;
    case MessageType::kLoginRejected: {
      LoginRejected m;
      m.reason = static_cast<RejectReason>(r.u8());
      out.message = m;
      break;
    }
    case MessageType::kHeartbeat:
      out.message = Heartbeat{};
      break;
    case MessageType::kLogout:
      out.message = Logout{};
      break;
    case MessageType::kReplayRequest: {
      ReplayRequest m;
      m.last_seen_seq = r.u32_le();
      out.message = m;
      break;
    }
    case MessageType::kSequenceReset: {
      SequenceReset m;
      m.next_seq = r.u32_le();
      out.message = m;
      break;
    }
    case MessageType::kNewOrder: {
      NewOrder m;
      m.client_order_id = r.u64_le();
      const std::uint8_t side = r.u8();
      m.quantity = r.u32_le();
      m.symbol = Symbol{r.ascii(Symbol::kWidth)};
      m.price = static_cast<Price>(r.u64_le());
      const std::uint8_t tif = r.u8();
      // Only the enumerated sides and times in force are orders; any other
      // byte would reach the book (which files non-buys as sells) and the
      // feed verbatim.
      if (side != static_cast<std::uint8_t>(Side::kBuy) &&
          side != static_cast<std::uint8_t>(Side::kSell)) {
        return std::nullopt;
      }
      if (tif != static_cast<std::uint8_t>(TimeInForce::kDay) &&
          tif != static_cast<std::uint8_t>(TimeInForce::kImmediateOrCancel)) {
        return std::nullopt;
      }
      m.side = static_cast<Side>(side);
      m.tif = static_cast<TimeInForce>(tif);
      out.message = m;
      break;
    }
    case MessageType::kCancelOrder: {
      CancelOrder m;
      m.client_order_id = r.u64_le();
      out.message = m;
      break;
    }
    case MessageType::kModifyOrder: {
      ModifyOrder m;
      m.client_order_id = r.u64_le();
      m.quantity = r.u32_le();
      m.price = static_cast<Price>(r.u64_le());
      out.message = m;
      break;
    }
    case MessageType::kOrderAccepted: {
      OrderAccepted m;
      m.client_order_id = r.u64_le();
      m.exchange_order_id = r.u64_le();
      m.transact_time_ns = r.u64_le();
      out.message = m;
      break;
    }
    case MessageType::kOrderRejected: {
      OrderRejected m;
      m.client_order_id = r.u64_le();
      m.reason = static_cast<RejectReason>(r.u8());
      out.message = m;
      break;
    }
    case MessageType::kOrderCancelled: {
      OrderCancelled m;
      m.client_order_id = r.u64_le();
      m.cancelled_quantity = r.u32_le();
      out.message = m;
      break;
    }
    case MessageType::kOrderModified: {
      OrderModified m;
      m.client_order_id = r.u64_le();
      m.quantity = r.u32_le();
      m.price = static_cast<Price>(r.u64_le());
      out.message = m;
      break;
    }
    case MessageType::kCancelRejected: {
      CancelRejected m;
      m.client_order_id = r.u64_le();
      m.reason = static_cast<RejectReason>(r.u8());
      out.message = m;
      break;
    }
    case MessageType::kFill: {
      Fill m;
      m.client_order_id = r.u64_le();
      m.execution_id = r.u64_le();
      m.quantity = r.u32_le();
      m.price = static_cast<Price>(r.u64_le());
      m.leaves_quantity = r.u32_le();
      out.message = m;
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok()) return std::nullopt;
  TSN_DCHECK(r.position() <= length, "BOE decode must stay inside the declared length");
  return out;
}

void StreamParser::feed(std::span<const std::byte> chunk) {
  if (broken_) return;  // nothing after a tear can be framed
  TSN_DCHECK(offset_ <= buffer_.size(), "consumed prefix cannot exceed the buffered bytes");
  // Compact the consumed prefix occasionally to bound memory.
  if (offset_ > 4096 && offset_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
}

std::optional<Decoded> StreamParser::next() {
  if (broken_) return std::nullopt;
  const std::span<const std::byte> view{buffer_.data() + offset_, buffer_.size() - offset_};
  const std::size_t length = complete_length(view);
  if (view.size() < 4 || (length != 0 && view.size() < length)) return std::nullopt;  // partial
  auto decoded = decode(view);
  if (!decoded) {
    // Bad magic or impossible length, or a whole frame that does not
    // decode (unknown type, short body, invalid field): the stream is torn.
    broken_ = true;
    buffer_.clear();
    offset_ = 0;
    return std::nullopt;
  }
  offset_ += decoded->consumed;
  return decoded;
}

}  // namespace tsn::proto::boe
