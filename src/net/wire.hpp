// Byte-level wire encoding and decoding.
//
// `WireWriter` appends big-endian (network order) fields to a growable
// buffer; `WireReader` consumes them from a span. Both are used by the
// Ethernet/IP/UDP/TCP codecs (big-endian) and, with the _le variants, by the
// exchange protocols in tsn::proto, which — like real PITCH/BOE — are
// little-endian.
//
// A reader that runs past the end sets a sticky failure flag and returns
// zeros rather than throwing: truncated frames are data, not logic errors.
// Multi-byte reads fail atomically — a read straddling the end of the buffer
// yields zero, never a value assembled from partial bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/check.hpp"

namespace tsn::net {

class WireWriter {
 public:
  explicit WireWriter(std::vector<std::byte>& out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

  void u16_le(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32_le(std::uint32_t v) {
    u16_le(static_cast<std::uint16_t>(v));
    u16_le(static_cast<std::uint16_t>(v >> 16));
  }
  void u64_le(std::uint64_t v) {
    u32_le(static_cast<std::uint32_t>(v));
    u32_le(static_cast<std::uint32_t>(v >> 32));
  }

  void bytes(std::span<const std::byte> data) { out_.insert(out_.end(), data.begin(), data.end()); }

  // Writes exactly `width` bytes: the string truncated or right-padded with
  // spaces (the convention exchange protocols use for symbols).
  void ascii(std::string_view text, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      u8(i < text.size() ? static_cast<std::uint8_t>(text[i]) : std::uint8_t{' '});
    }
  }


  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

  // Read-back view of previously-written bytes (e.g. to checksum a header
  // in place instead of staging it in a scratch buffer).
  [[nodiscard]] std::span<const std::byte> written(std::size_t offset, std::size_t len) const {
    TSN_ASSERT(offset + len <= out_.size(), "written() range past end of buffer");
    return std::span<const std::byte>{out_}.subspan(offset, len);
  }

  // Patches a previously-written big-endian u16 at `offset` (e.g. a length
  // field known only after the body is written).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    TSN_ASSERT(offset + 2 <= out_.size(), "patch_u16 offset past end of buffer");
    out_[offset] = static_cast<std::byte>(v >> 8);
    out_[offset + 1] = static_cast<std::byte>(v);
  }
  void patch_u16_le(std::size_t offset, std::uint16_t v) {
    TSN_ASSERT(offset + 2 <= out_.size(), "patch_u16_le offset past end of buffer");
    out_[offset] = static_cast<std::byte>(v);
    out_[offset + 1] = static_cast<std::byte>(v >> 8);
  }

 private:
  std::vector<std::byte>& out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    const std::byte* p = take(1);
    return p == nullptr ? 0 : static_cast<std::uint8_t>(p[0]);
  }
  [[nodiscard]] std::uint16_t u16() noexcept { return static_cast<std::uint16_t>(be(2)); }
  [[nodiscard]] std::uint32_t u32() noexcept { return static_cast<std::uint32_t>(be(4)); }
  [[nodiscard]] std::uint64_t u64() noexcept { return be(8); }

  [[nodiscard]] std::uint16_t u16_le() noexcept { return static_cast<std::uint16_t>(le(2)); }
  [[nodiscard]] std::uint32_t u32_le() noexcept { return static_cast<std::uint32_t>(le(4)); }
  [[nodiscard]] std::uint64_t u64_le() noexcept { return le(8); }

  [[nodiscard]] std::span<const std::byte> bytes(std::size_t n) noexcept {
    if (pos_ + n > data_.size()) {
      failed_ = true;
      pos_ = data_.size();
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  // Reads `width` bytes and strips trailing spaces.
  [[nodiscard]] std::string_view ascii(std::size_t width) noexcept {
    auto raw = bytes(width);
    std::size_t len = raw.size();
    while (len > 0 && static_cast<char>(raw[len - 1]) == ' ') --len;
    // tsn-lint: allow(raw-cast) the span is bounds-checked by bytes(); viewing it as chars is safe
    return {reinterpret_cast<const char*>(raw.data()), len};
  }

  void skip(std::size_t n) noexcept { (void)bytes(n); }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool ok() const noexcept { return !failed_; }

 private:
  // Bounds-checks and consumes `n` bytes. On a short buffer the whole read
  // fails atomically: no partial bytes leak into the returned value, the
  // position clamps to the end, and the sticky flag is set.
  [[nodiscard]] const std::byte* take(std::size_t n) noexcept {
    if (failed_ || n > data_.size() - pos_) {
      failed_ = true;
      pos_ = data_.size();
      return nullptr;
    }
    const std::byte* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  [[nodiscard]] std::uint64_t be(std::size_t n) noexcept {
    const std::byte* p = take(n);
    if (p == nullptr) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    return v;
  }

  [[nodiscard]] std::uint64_t le(std::size_t n) noexcept {
    const std::byte* p = take(n);
    if (p == nullptr) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(p[i])} << (8 * i);
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace tsn::net
