#include "proto/xpress.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "net/headers.hpp"

namespace tsn::proto::xpress {

namespace {

void write_full_header(net::WireWriter& w, std::uint8_t ctx, std::uint16_t stream_id,
                       std::uint32_t seq, std::span<const std::byte> payload) {
  w.u8(kMagicFull);
  w.u8(ctx);
  w.u16_le(stream_id);
  w.u32_le(seq);
  w.u16_le(static_cast<std::uint16_t>(payload.size()));
  w.bytes(payload);
}

}  // namespace

Compressor::Compressor(std::uint8_t ctx_base, std::uint8_t ctx_limit) noexcept
    : next_context_(ctx_base),
      end_context_(static_cast<std::uint8_t>(
          std::min<std::uint32_t>(kMaxContexts, std::uint32_t{ctx_base} + ctx_limit))) {}

std::size_t Compressor::encode(std::uint16_t stream_id, std::uint32_t seq,
                               std::span<const std::byte> payload, std::vector<std::byte>& out) {
  TSN_ASSERT(payload.size() <= 0xffff, "Xpress payload must fit its 16-bit length field");
  net::WireWriter w{out};
  auto it = contexts_.find(stream_id);
  if (it == contexts_.end()) {
    Context ctx;
    if (next_context_ < end_context_) ctx.id = next_context_++;
    ctx.established = ctx.id != kNoContext;
    ctx.last_seq = seq;
    it = contexts_.emplace(stream_id, ctx).first;
    write_full_header(w, ctx.id, stream_id, seq, payload);
    return kFullHeaderSize;
  }
  Context& ctx = it->second;
  if (ctx.id == kNoContext) {
    // Provisioned range exhausted: this stream is permanently uncompressed.
    write_full_header(w, kNoContext, stream_id, seq, payload);
    return kFullHeaderSize;
  }
  if (!ctx.established) {
    ctx.established = true;
    ctx.last_seq = seq;
    write_full_header(w, ctx.id, stream_id, seq, payload);
    return kFullHeaderSize;
  }
  if (seq == ctx.last_seq + 1) {
    ctx.last_seq = seq;
    w.u8(static_cast<std::uint8_t>(0x80 | ctx.id));
    w.u16_le(static_cast<std::uint16_t>(payload.size()));
    w.bytes(payload);
    return kCompactHeaderSize;
  }
  // Sequence discontinuity: resync form re-announces the sequence.
  ctx.last_seq = seq;
  w.u8(static_cast<std::uint8_t>(0xc0 | ctx.id));
  w.u32_le(seq);
  w.u16_le(static_cast<std::uint16_t>(payload.size()));
  w.bytes(payload);
  return kResyncHeaderSize;
}

void Compressor::reset() noexcept {
  // tsn-lint: allow(unordered-iter) order-independent: same flag written to every entry
  for (auto& [stream, ctx] : contexts_) ctx.established = false;
}

std::optional<Decompressor::Result> Decompressor::decode(std::span<const std::byte> data) {
  if (data.empty()) return std::nullopt;
  const auto first = static_cast<std::uint8_t>(data[0]);
  net::WireReader r{data};
  if (first == kMagicFull) {
    r.skip(1);
    const std::uint8_t ctx_id = r.u8();
    const std::uint16_t stream = r.u16_le();
    const std::uint32_t seq = r.u32_le();
    const std::uint16_t length = r.u16_le();
    if (!r.ok() || r.remaining() < length) return std::nullopt;
    // Bind the announced context (if the stream is compressible at all).
    if (ctx_id < kMaxContexts) {
      contexts_[ctx_id] = Context{stream, seq, true};
    } else if (ctx_id != kNoContext) {
      return std::nullopt;  // malformed context byte
    }
    Result out;
    out.frame = Frame{stream, seq, data.subspan(kFullHeaderSize, length)};
    out.consumed = kFullHeaderSize + length;
    TSN_DCHECK(out.consumed <= data.size(), "decoded full frame must stay inside the buffer");
    return out;
  }
  const bool resync = (first & 0xc0) == 0xc0;
  const bool compact = (first & 0xc0) == 0x80;
  if (!resync && !compact) return std::nullopt;  // not a frame boundary
  const std::uint8_t ctx_id = first & 0x3f;
  Context& ctx = contexts_[ctx_id];
  r.skip(1);
  std::uint32_t seq;
  std::size_t header_size;
  if (resync) {
    seq = r.u32_le();
    header_size = kResyncHeaderSize;
  } else {
    seq = ctx.last_seq + 1;
    header_size = kCompactHeaderSize;
  }
  const std::uint16_t length = r.u16_le();
  if (!r.ok() || r.remaining() < length) return std::nullopt;
  if (!ctx.known) {
    ++unknown_context_errors_;
    return std::nullopt;
  }
  ctx.last_seq = seq;
  Result out;
  out.frame = Frame{ctx.stream_id, seq, data.subspan(header_size, length)};
  out.consumed = header_size + length;
  TSN_DCHECK(out.consumed <= data.size(), "decoded compact frame must stay inside the buffer");
  return out;
}

}  // namespace tsn::proto::xpress
