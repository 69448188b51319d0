#include "proto/xpress.hpp"

#include <gtest/gtest.h>

#include "net/headers.hpp"

namespace tsn::proto::xpress {
namespace {

std::vector<std::byte> payload_of(std::size_t n, std::uint8_t fill = 0x5a) {
  return std::vector<std::byte>(n, static_cast<std::byte>(fill));
}

TEST(Xpress, FullHeaderRoundTrip) {
  const auto payload = payload_of(26);
  Compressor tx;
  std::vector<std::byte> frame;
  EXPECT_EQ(tx.encode(17, 1000, payload, frame), kFullHeaderSize);  // a stream's first frame
  EXPECT_EQ(frame.size(), kFullHeaderSize + 26);
  Decompressor rx;
  const auto result = rx.decode(frame);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->frame.stream_id, 17);
  EXPECT_EQ(result->frame.seq, 1000u);
  EXPECT_EQ(result->frame.payload.size(), 26u);
  EXPECT_EQ(result->consumed, frame.size());
}

TEST(Xpress, CompressorUsesFullThenCompact) {
  Compressor tx;
  std::vector<std::byte> out;
  EXPECT_EQ(tx.encode(5, 1, payload_of(10), out), kFullHeaderSize);
  EXPECT_EQ(tx.encode(5, 2, payload_of(10), out), kCompactHeaderSize);
  EXPECT_EQ(tx.encode(5, 3, payload_of(10), out), kCompactHeaderSize);
  EXPECT_EQ(out.size(), kFullHeaderSize + 2 * kCompactHeaderSize + 30);
}

TEST(Xpress, SequenceGapTriggersResync) {
  Compressor tx;
  std::vector<std::byte> out;
  (void)tx.encode(5, 1, payload_of(4), out);
  (void)tx.encode(5, 2, payload_of(4), out);
  EXPECT_EQ(tx.encode(5, 10, payload_of(4), out), kResyncHeaderSize);
  EXPECT_EQ(tx.encode(5, 11, payload_of(4), out), kCompactHeaderSize);
}

TEST(Xpress, EndToEndStreamDecodesInOrder) {
  Compressor tx;
  Decompressor rx;
  std::vector<std::byte> pipe;
  constexpr int kFrames = 100;
  for (int i = 0; i < kFrames; ++i) {
    const auto stream = static_cast<std::uint16_t>(i % 3);
    (void)tx.encode(stream, static_cast<std::uint32_t>(i / 3 + 1),
                    payload_of(8, static_cast<std::uint8_t>(i)), pipe);
  }
  std::size_t offset = 0;
  int decoded = 0;
  while (offset < pipe.size()) {
    const auto result = rx.decode(std::span{pipe}.subspan(offset));
    ASSERT_TRUE(result.has_value()) << "frame " << decoded;
    EXPECT_EQ(result->frame.stream_id, decoded % 3);
    EXPECT_EQ(result->frame.seq, static_cast<std::uint32_t>(decoded / 3 + 1));
    offset += result->consumed;
    ++decoded;
  }
  EXPECT_EQ(decoded, kFrames);
  EXPECT_EQ(rx.unknown_context_errors(), 0u);
}

TEST(Xpress, ResyncCarriesExplicitSequence) {
  Compressor tx;
  Decompressor rx;
  std::vector<std::byte> pipe;
  (void)tx.encode(9, 1, payload_of(4), pipe);
  (void)tx.encode(9, 50, payload_of(4), pipe);  // gap -> resync form
  auto first = rx.decode(pipe);
  ASSERT_TRUE(first.has_value());
  auto second = rx.decode(std::span{pipe}.subspan(first->consumed));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->frame.seq, 50u);
}

TEST(Xpress, CompactForUnknownContextIsCountedNotCrashed) {
  Compressor tx;
  std::vector<std::byte> pipe;
  (void)tx.encode(9, 1, payload_of(4), pipe);
  (void)tx.encode(9, 2, payload_of(4), pipe);
  // A fresh receiver that missed the full header cannot decode the compact
  // frame.
  Decompressor cold;
  const auto result = cold.decode(std::span{pipe}.subspan(kFullHeaderSize + 4));
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(cold.unknown_context_errors(), 1u);
}

TEST(Xpress, ResetForcesFullHeaders) {
  Compressor tx;
  std::vector<std::byte> out;
  (void)tx.encode(5, 1, payload_of(4), out);
  (void)tx.encode(5, 2, payload_of(4), out);
  tx.reset();
  EXPECT_EQ(tx.encode(5, 3, payload_of(4), out), kFullHeaderSize);
}

TEST(Xpress, ContextExhaustionFallsBackToFull) {
  Compressor tx;
  std::vector<std::byte> out;
  for (std::uint16_t s = 0; s < kMaxContexts; ++s) {
    (void)tx.encode(s, 1, payload_of(1), out);
  }
  EXPECT_EQ(tx.context_count(), kMaxContexts);
  // The 65th stream never gets a context: always full headers.
  EXPECT_EQ(tx.encode(999, 1, payload_of(1), out), kFullHeaderSize);
  EXPECT_EQ(tx.encode(999, 2, payload_of(1), out), kFullHeaderSize);
}

TEST(Xpress, DecodeRejectsGarbageAndTruncation) {
  Decompressor rx;
  EXPECT_FALSE(rx.decode({}).has_value());
  const auto junk = payload_of(5, 0x01);  // 0x01 is neither full nor compact
  EXPECT_FALSE(rx.decode(junk).has_value());
  Compressor tx;
  std::vector<std::byte> frame;
  (void)tx.encode(1, 1, payload_of(20), frame);
  EXPECT_FALSE(rx.decode(std::span{frame}.subspan(0, frame.size() - 1)).has_value());
}

TEST(Xpress, OverheadComparisonMatchesPaperArithmetic) {
  // §5: ~46 bytes of standard headers vs 3 bytes compact — the order
  // entry messages themselves are 14-26 bytes, so headers dominated.
  const std::size_t standard_headers = net::kEthernetHeaderSize + net::kIpv4HeaderSize +
                                       net::kUdpHeaderSize + net::kEthernetFcsSize;
  EXPECT_EQ(standard_headers, 46u);
  EXPECT_EQ(kCompactHeaderSize, 3u);
  const double standard_share_cancel =
      static_cast<double>(standard_headers) / (14.0 + standard_headers);
  const double xpress_share_cancel =
      static_cast<double>(kCompactHeaderSize) / (14.0 + kCompactHeaderSize);
  EXPECT_GT(standard_share_cancel, 0.7);
  EXPECT_LT(xpress_share_cancel, 0.2);
}

}  // namespace
}  // namespace tsn::proto::xpress
