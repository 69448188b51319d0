// "Xpress" — a custom low-latency transport (§5, Protocols).
//
// The paper argues that standard Ethernet/IP/UDP headers (40+ bytes that
// strategies routinely ignore, costing ~40 ns of wire time at 10 Gb/s) are
// excessive for trading traffic, and suggests custom transports co-designed
// with L1S constraints. Xpress is such a design:
//
//  - A fixed 10-byte full header:
//      magic(1)=0xF5 ctx(1) stream(2) seq(4) length(2).
//    The stream id doubles as the filtering/load-balancing key §5 proposes
//    exposing to the network; the ctx byte announces the compression
//    context the sender will use for this stream (0xFF = never compressed).
//  - Stateful header compression for established streams: once a receiver
//    has seen a stream's full header, subsequent packets need only
//      compact:  (0x80|ctx)(1) length(2)            = 3 bytes,
//    which implies seq = last+1; after loss or reordering the sender emits
//      resync:   (0xC0|ctx)(1) seq(4) length(2)     = 7 bytes.
//    ctx is a 6-bit context id, so up to 64 streams can share one merged
//    L1S pipe. Because the pipe is shared, senders merging onto it must be
//    provisioned with disjoint context ranges (Compressor takes a base and
//    a limit) — the same coordination a patch panel already implies.
//
// Framing is self-delimiting (every header carries the payload length), so
// Xpress survives L1S merging, where frames from many inputs interleave on
// one output with no lower-layer demarcation.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"

namespace tsn::proto::xpress {

inline constexpr std::uint8_t kMagicFull = 0xf5;
inline constexpr std::size_t kFullHeaderSize = 10;
inline constexpr std::size_t kCompactHeaderSize = 3;
inline constexpr std::size_t kResyncHeaderSize = 7;
inline constexpr std::size_t kMaxContexts = 64;
// ctx byte value meaning "this stream is never compressed".
inline constexpr std::uint8_t kNoContext = 0xff;

struct Frame {
  std::uint16_t stream_id = 0;
  std::uint32_t seq = 0;
  std::span<const std::byte> payload;
};

// Stateful compressing encoder for one sender on a pipe. Streams are
// assigned context ids in first-use order from the sender's provisioned
// range [ctx_base, ctx_base + ctx_limit); streams beyond the range fall
// back to permanent full headers. Senders sharing a merged pipe must be
// given disjoint ranges.
class Compressor {
 public:
  explicit Compressor(std::uint8_t ctx_base = 0,
                      std::uint8_t ctx_limit = kMaxContexts) noexcept;

  // Appends the encoded frame for `stream_id` to `out`; chooses full,
  // resync, or compact form automatically. Returns the header size used.
  std::size_t encode(std::uint16_t stream_id, std::uint32_t seq,
                     std::span<const std::byte> payload, std::vector<std::byte>& out);

  // Forces the next frame of every stream to carry a full header (e.g.
  // after the receiver reports loss of context).
  void reset() noexcept;

  [[nodiscard]] std::size_t context_count() const noexcept { return contexts_.size(); }

 private:
  struct Context {
    std::uint8_t id = kNoContext;
    std::uint32_t last_seq = 0;
    bool established = false;
  };
  std::unordered_map<std::uint16_t, Context> contexts_;
  std::uint8_t next_context_;
  std::uint8_t end_context_;
};

// Stateful decompressing decoder for one pipe. Feed it a byte stream; it
// yields frames. Compact headers for unknown contexts are unrecoverable
// until the next full header (counted, not thrown).
// tsn-lint: allow(unreached-symbol) Xpress receive path; round-trip and fuzz tests decode with it
class Decompressor {
 public:
  struct Result {
    Frame frame;
    std::size_t consumed = 0;
  };

  // Decodes the first frame in `data` (which must start at a frame
  // boundary). nullopt when the data is incomplete or the context is
  // unknown; in the latter case `skip_unknown` says how many bytes to drop.
  // tsn-lint: allow(unreached-member) the Xpress round-trip and fuzz tests decode with it
  [[nodiscard]] std::optional<Result> decode(std::span<const std::byte> data);

  [[nodiscard]] std::uint64_t unknown_context_errors() const noexcept {
    return unknown_context_errors_;
  }

 private:
  struct Context {
    std::uint16_t stream_id = 0;
    std::uint32_t last_seq = 0;
    bool known = false;
  };
  std::array<Context, kMaxContexts> contexts_{};
  std::uint64_t unknown_context_errors_ = 0;
};

}  // namespace tsn::proto::xpress
