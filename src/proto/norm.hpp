// "NORM" — the trading firm's internal normalized market-data format.
//
// Normalizers convert each exchange's native feed into this single standard
// format and re-partition it (§2), so strategies execute directly on
// relevant, uniform market data and common decode work is not repeated on
// every strategy server.
//
// Unlike exchange feeds, all NORM messages are one fixed 38-byte layout —
// fixed size is what makes strategy-side processing branch-free. Datagrams
// carry an 18-byte header: magic(2) partition(2) count(2) seq(4) time(8).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/wire.hpp"
#include "proto/types.hpp"

namespace tsn::proto::norm {

inline constexpr std::uint16_t kMagic = 0x4e4d;  // "NM"
inline constexpr std::size_t kHeaderSize = 18;
inline constexpr std::size_t kMessageSize = 38;

enum class UpdateKind : std::uint8_t {
  kOrderAdd = 1,
  kOrderDelete = 2,
  kOrderModify = 3,
  kTradePrint = 4,
  kBboUpdate = 5,  // post-filter best-bid-and-offer change (Fig 2b's events)
};

// One normalized market-data update. `exchange_time_ns` is the exchange's
// own stamp (nanoseconds since midnight); `price`/`quantity` are the
// post-update values.
struct Update {
  UpdateKind kind = UpdateKind::kBboUpdate;
  std::uint8_t exchange_id = 0;
  Side side = Side::kBuy;
  std::uint8_t flags = 0;
  Symbol symbol;
  Price price = 0;
  Quantity quantity = 0;
  OrderId order_id = 0;
  std::uint64_t exchange_time_ns = 0;
};

void encode(const Update& update, net::WireWriter& w);
[[nodiscard]] std::optional<Update> decode_one(net::WireReader& r);

struct DatagramHeader {
  std::uint16_t partition = 0;
  std::uint16_t count = 0;
  std::uint32_t sequence = 0;      // sequence of the first update
  std::uint64_t send_time_ns = 0;  // normalizer's transmit stamp
};

// Packs updates into bounded datagrams, like pitch::FrameBuilder. The sink
// sees each datagram in the builder's own buffer, which is reused for the
// next one: a warm builder never allocates.
class DatagramBuilder {
 public:
  using Sink = std::function<void(std::span<const std::byte> payload)>;

  DatagramBuilder(std::uint16_t partition, std::size_t max_payload, Sink sink);

  void append(const Update& update, std::uint64_t now_ns);
  void flush();

  [[nodiscard]] std::uint32_t next_sequence() const noexcept { return sequence_; }

 private:
  void begin();

  std::uint16_t partition_;
  std::size_t max_payload_;
  Sink sink_;
  std::uint32_t sequence_ = 1;
  std::uint64_t first_time_ns_ = 0;
  std::vector<std::byte> buffer_;
  std::size_t count_ = 0;
};

// nullopt on a bad magic or a buffer too short for the updates it claims.
[[nodiscard]] std::optional<DatagramHeader> peek_header(std::span<const std::byte> payload);
// Invokes `fn` per update; false on a bad header or update.
[[nodiscard]] bool for_each_update(std::span<const std::byte> payload,
                                   const std::function<void(const Update&)>& fn);

}  // namespace tsn::proto::norm
