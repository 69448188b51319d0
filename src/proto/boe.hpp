// "TsnBoe" — the binary order-entry protocol.
//
// Modelled on exchange order-entry protocols like Cboe BOE (§2): a
// session-oriented, little-endian binary protocol carried over long-lived
// TCP connections from the trading firm into the exchange. It supports
// login, new/cancel/modify order requests, and the exchange's
// acknowledgements, rejects and fills. The protocol intentionally exhibits
// the races the paper describes — e.g. a cancel request crossing a fill
// notification in flight — which the exchange resolves by rejecting the
// cancel with `kTooLateToCancel`.
//
// Wire layout: every message starts with a 9-byte header
//   magic(2)=0xBA7A length(2, incl. header) type(1) seq(4)
// followed by the type-specific body.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "net/wire.hpp"
#include "proto/types.hpp"

namespace tsn::proto::boe {

inline constexpr std::uint16_t kMagic = 0xba7a;
inline constexpr std::size_t kHeaderSize = 9;

enum class MessageType : std::uint8_t {
  kLoginRequest = 0x01,
  kLoginAccepted = 0x02,
  kLoginRejected = 0x03,
  kHeartbeat = 0x04,
  kLogout = 0x05,
  kReplayRequest = 0x06,
  kSequenceReset = 0x07,
  kNewOrder = 0x10,
  kCancelOrder = 0x11,
  kModifyOrder = 0x12,
  kOrderAccepted = 0x20,
  kOrderRejected = 0x21,
  kOrderCancelled = 0x22,
  kOrderModified = 0x23,
  kCancelRejected = 0x24,
  kFill = 0x25,
};

enum class RejectReason : std::uint8_t {
  kNone = 0,
  kInvalidSymbol = 1,
  kDuplicateOrderId = 2,
  kUnknownOrder = 3,
  kTooLateToCancel = 4,  // the cancel/fill race (§2)
  kRiskLimit = 5,
  kNotLoggedIn = 6,
  kInvalidPrice = 7,
  kInvalidQuantity = 8,
  kGatewayBackpressure = 9,  // shed by the gateway's bounded upstream queue
  kSessionInUse = 10,        // re-login with the wrong token while a live connection holds the session
};

enum class TimeInForce : std::uint8_t {
  kDay = 0,
  kImmediateOrCancel = 1,
};

struct LoginRequest {
  std::uint32_t session_id = 0;
  std::uint64_t token = 0;
};
struct LoginAccepted {};
struct LoginRejected {
  RejectReason reason = RejectReason::kNone;
};
struct Heartbeat {};
struct Logout {};

// Client → exchange after a resumed login: replay every sequenced response
// with seq > last_seen_seq. Session-level messages (logins, heartbeats,
// SequenceReset) carry seq 0 and are never replayed.
struct ReplayRequest {
  std::uint32_t last_seen_seq = 0;
};

// Exchange → client: replay is complete; the next sequenced message the
// session emits will carry `next_seq`.
struct SequenceReset {
  std::uint32_t next_seq = 1;
};

struct NewOrder {
  OrderId client_order_id = 0;
  Side side = Side::kBuy;
  Quantity quantity = 0;
  Symbol symbol;
  Price price = 0;
  TimeInForce tif = TimeInForce::kDay;
};

struct CancelOrder {
  OrderId client_order_id = 0;
};

struct ModifyOrder {
  OrderId client_order_id = 0;
  Quantity quantity = 0;
  Price price = 0;
};

struct OrderAccepted {
  OrderId client_order_id = 0;
  OrderId exchange_order_id = 0;
  std::uint64_t transact_time_ns = 0;
};

struct OrderRejected {
  OrderId client_order_id = 0;
  RejectReason reason = RejectReason::kNone;
};

struct OrderCancelled {
  OrderId client_order_id = 0;
  Quantity cancelled_quantity = 0;
};

struct OrderModified {
  OrderId client_order_id = 0;
  Quantity quantity = 0;
  Price price = 0;
};

struct CancelRejected {
  OrderId client_order_id = 0;
  RejectReason reason = RejectReason::kNone;
};

struct Fill {
  OrderId client_order_id = 0;
  ExecId execution_id = 0;
  Quantity quantity = 0;
  Price price = 0;
  Quantity leaves_quantity = 0;
};

using Message = std::variant<LoginRequest, LoginAccepted, LoginRejected, Heartbeat, Logout,
                             ReplayRequest, SequenceReset, NewOrder, CancelOrder, ModifyOrder,
                             OrderAccepted, OrderRejected, OrderCancelled, OrderModified,
                             CancelRejected, Fill>;

[[nodiscard]] MessageType type_of(const Message& message) noexcept;
[[nodiscard]] std::size_t encoded_size(const Message& message) noexcept;

// Encodes header + body. `seq` is the session sequence number.
[[nodiscard]] std::vector<std::byte> encode(const Message& message, std::uint32_t seq);

// Appending variant: encodes onto the end of `out` (not cleared), reusing
// its capacity — the per-message encode on the million-session send path.
void encode_into(const Message& message, std::uint32_t seq, std::vector<std::byte>& out);

struct Decoded {
  Message message;
  std::uint32_t seq = 0;
  std::size_t consumed = 0;
};

// Decodes the first complete message in `data`; nullopt when the buffer is
// malformed (unknown type, short body, a NewOrder side or time in force
// outside its enum) or the message is still incomplete (check
// `complete_length`).
[[nodiscard]] std::optional<Decoded> decode(std::span<const std::byte> data);

// Length the first message will have once fully buffered (0 when even the
// header is incomplete or the magic is wrong).
[[nodiscard]] std::size_t complete_length(std::span<const std::byte> data) noexcept;

// Reassembles a TCP byte stream into messages: feed arbitrary chunks, pop
// complete messages in order.
class StreamParser {
 public:
  void feed(std::span<const std::byte> chunk);
  // Pops the next complete message, or nullopt if more bytes are needed.
  // A torn stream (bad magic, impossible length) or a complete frame that
  // decode() rejects sets broken(): from then on next() produces nothing
  // and feed() drops its input.
  [[nodiscard]] std::optional<Decoded> next();
  [[nodiscard]] bool broken() const noexcept { return broken_; }
  // tsn-lint: allow(unreached-member) test_proto_boe: a broken stream buffers nothing more
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buffer_.size() - offset_; }

 private:
  std::vector<std::byte> buffer_;
  std::size_t offset_ = 0;
  bool broken_ = false;
};

}  // namespace tsn::proto::boe
