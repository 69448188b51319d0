// "TsnPitch" — the exchange market-data wire format.
//
// Modelled closely on depth-of-book feeds like Cboe PITCH (§2): little-
// endian binary messages, each with a 1-byte length and 1-byte type, packed
// several to a UDP datagram behind an 8-byte sequenced unit header. The
// paper's quoted sizes hold: a short-form add order is 26 bytes and an
// order delete is 14 bytes.
//
// Wire layout (all integers little-endian):
//   SequencedUnitHeader:  length(2) count(1) unit(1) sequence(4)      = 8
//   Time:                 len type seconds(4)                          = 6
//   AddOrderShort:        len type offset(4) id(8) side qty(2)
//                         symbol(6) price(2) flags                     = 26
//   AddOrderLong:         len type offset(4) id(8) side qty(4)
//                         symbol(6) price(8) flags                     = 34
//   OrderExecuted:        len type offset(4) id(8) qty(4) exec(8)      = 26
//   ReduceSize:           len type offset(4) id(8) qty(4)              = 18
//   ModifyOrder:          len type offset(4) id(8) qty(4) price(8) fl  = 27
//   DeleteOrder:          len type offset(4) id(8)                     = 14
//   Trade:                len type offset(4) id(8) side qty(4)
//                         symbol(6) price(8) exec(8)                   = 41
//
// `offset` is nanoseconds since the last Time message; Time carries seconds
// since midnight. Short-form add orders can only express prices below
// $6.5535 and sizes below 65536 — the encoder picks the form automatically,
// exactly why real feeds have a bimodal message-length mix.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "net/wire.hpp"
#include "proto/types.hpp"

namespace tsn::proto::pitch {

enum class MessageType : std::uint8_t {
  kTime = 0x20,
  kAddOrderShort = 0x21,
  kAddOrderLong = 0x22,
  kOrderExecuted = 0x23,
  kReduceSize = 0x25,
  kModifyOrder = 0x27,
  kDeleteOrder = 0x29,
  kTrade = 0x2a,
  // Snapshot channel (gap recovery): a snapshot cycle for one live unit is
  // SnapshotBegin, the unit's resting orders as AddOrder messages, then
  // SnapshotEnd. `next_sequence` is where the live stream continues.
  kSnapshotBegin = 0x30,
  kSnapshotEnd = 0x31,
};

struct Time {
  std::uint32_t seconds_since_midnight = 0;
};

struct AddOrder {
  std::uint32_t time_offset_ns = 0;
  OrderId order_id = 0;
  Side side = Side::kBuy;
  Quantity quantity = 0;
  Symbol symbol;
  Price price = 0;
  std::uint8_t flags = 0;

  // True when the message fits the 26-byte short form.
  [[nodiscard]] bool fits_short_form() const noexcept {
    return quantity <= 0xffff && price >= 0 && price <= 0xffff;
  }
};

struct OrderExecuted {
  std::uint32_t time_offset_ns = 0;
  OrderId order_id = 0;
  Quantity executed_quantity = 0;
  ExecId execution_id = 0;
};

struct ReduceSize {
  std::uint32_t time_offset_ns = 0;
  OrderId order_id = 0;
  Quantity cancelled_quantity = 0;
};

struct ModifyOrder {
  std::uint32_t time_offset_ns = 0;
  OrderId order_id = 0;
  Quantity quantity = 0;
  Price price = 0;
  std::uint8_t flags = 0;
};

struct DeleteOrder {
  std::uint32_t time_offset_ns = 0;
  OrderId order_id = 0;
};

struct Trade {
  std::uint32_t time_offset_ns = 0;
  OrderId order_id = 0;  // resting order, 0 for hidden liquidity
  Side side = Side::kBuy;
  Quantity quantity = 0;
  Symbol symbol;
  Price price = 0;
  ExecId execution_id = 0;
};

struct SnapshotBegin {
  std::uint8_t unit = 0;          // the live unit this snapshot covers
  std::uint32_t next_sequence = 0;  // first live sequence after the snapshot
};

struct SnapshotEnd {
  std::uint8_t unit = 0;
  std::uint32_t order_count = 0;  // resting orders carried in the cycle
};

using Message = std::variant<Time, AddOrder, OrderExecuted, ReduceSize, ModifyOrder,
                             DeleteOrder, Trade, SnapshotBegin, SnapshotEnd>;

inline constexpr std::size_t kUnitHeaderSize = 8;

// Encoded size of one message (AddOrder depends on its form).
[[nodiscard]] std::size_t encoded_size(const Message& message) noexcept;

// Appends one message to `w`.
void encode(const Message& message, net::WireWriter& w);

struct UnitHeader {
  std::uint16_t length = 0;  // bytes including this header
  std::uint8_t count = 0;    // messages in the datagram
  std::uint8_t unit = 0;     // feed partition id
  std::uint32_t sequence = 0;  // sequence of the first message
};

// Packs messages into sequenced datagram payloads of bounded size. When a
// message would overflow the current datagram, the datagram is emitted via
// the sink and a new one begins. Real feeds pack the same way "for
// efficiency" (§2).
class FrameBuilder {
 public:
  using Sink = std::function<void(std::vector<std::byte> payload, const UnitHeader& header)>;

  // `max_payload` bounds the datagram payload (unit header included);
  // 1458 keeps the full frame within a 1500-byte Ethernet payload + margin.
  FrameBuilder(std::uint8_t unit, std::size_t max_payload, Sink sink);

  void append(const Message& message);
  // Emits the pending datagram, if any.
  void flush();

  [[nodiscard]] std::uint32_t next_sequence() const noexcept { return sequence_; }
  [[nodiscard]] std::size_t pending_messages() const noexcept { return count_; }

 private:
  void begin_frame();

  std::uint8_t unit_;
  std::size_t max_payload_;
  Sink sink_;
  std::uint32_t sequence_ = 1;
  std::vector<std::byte> buffer_;
  std::size_t count_ = 0;
};

// Parses just the unit header (e.g. for gap detection at taps).
[[nodiscard]] std::optional<UnitHeader> peek_header(std::span<const std::byte> payload);

// ---------------------------------------------------------------------------
// Decode.
//
// `decode_batch` is the one PITCH decoder. It walks a whole datagram's
// messages into a caller-provided struct-of-arrays buffer in one pass: the
// per-message cost is one length/type load, one bounds check, and
// straight-line little-endian field loads into flat columns — no variant
// construction, no per-field reader checks, no callback dispatch. Consumers
// iterate `kind[0..count)` and read only the columns their switch arm needs.

enum class DecodedKind : std::uint8_t {
  kTime = 0,
  kAddOrder,
  kOrderExecuted,
  kReduceSize,
  kModifyOrder,
  kDeleteOrder,
  kTrade,
  kSnapshotBegin,
  kSnapshotEnd,
};

// SoA view of one decoded datagram. Row i holds message i; every column is
// resized to the datagram's message count, and only the fields the row's
// kind carries are meaningful:
//
//   kTime           u32a = seconds_since_midnight
//   kAddOrder       u32a = time_offset_ns; order_id, side, quantity, symbol,
//                   price, flags
//   kOrderExecuted  u32a = time_offset_ns; order_id, quantity, execution_id
//   kReduceSize     u32a = time_offset_ns; order_id, quantity (cancelled)
//   kModifyOrder    u32a = time_offset_ns; order_id, quantity, price, flags
//   kDeleteOrder    u32a = time_offset_ns; order_id
//   kTrade          u32a = time_offset_ns; order_id, side, quantity, symbol,
//                   price, execution_id
//   kSnapshotBegin  u32a = next_sequence; flags = unit
//   kSnapshotEnd    u32a = order_count;   flags = unit
//
// The buffer is reusable: columns keep their capacity across datagrams, so a
// warm consumer decodes allocation-free.
struct DecodedBatch {
  UnitHeader header;
  std::size_t count = 0;

  std::vector<DecodedKind> kind;
  std::vector<std::uint32_t> u32a;
  std::vector<OrderId> order_id;
  std::vector<Side> side;
  std::vector<Quantity> quantity;
  std::vector<Price> price;
  std::vector<ExecId> execution_id;
  std::vector<Symbol> symbol;
  std::vector<std::uint8_t> flags;

  // AoS view of row i, for tests and tools that want the variant.
  [[nodiscard]] Message message_at(std::size_t i) const;
};

// Decodes every message of `payload` into `out`. Returns true when the whole
// datagram parsed; on malformed input returns false with `out.count` set to
// the valid message prefix. Bytes past the unit header's `length` are not
// read. The fuzz suite checks every verdict and row against a scalar
// reference decoder (tests/pitch_oracle.hpp).
[[nodiscard]] bool decode_batch(std::span<const std::byte> payload, DecodedBatch& out);

}  // namespace tsn::proto::pitch
