// A/B line arbitration: dedup, reorder, and dual-gap semantics.
//
// The load-bearing property (§4's redundancy argument): for ANY loss
// pattern in which the union of the A and B lines covers every sequence
// number, the arbitrated output is byte-identical to the lossless
// published stream. The property test below drives 120 seeded-random loss
// masks and delivery jitters through the arbitration core directly.
#include "sim/engine.hpp"
#include <gtest/gtest.h>

#include <vector>

#include "proto/pitch.hpp"
#include "sim/random.hpp"
#include "trading/arbiter.hpp"

namespace tsn::trading {
namespace {

ArbiterConfig test_config() {
  // The output NIC stays unplugged, so the tap is the only observer.
  ArbiterConfig config;
  config.a_mac = net::MacAddr::from_host_id(1);
  config.a_ip = net::Ipv4Addr{10, 9, 0, 1};
  config.b_mac = net::MacAddr::from_host_id(2);
  config.b_ip = net::Ipv4Addr{10, 9, 0, 2};
  config.out_mac = net::MacAddr::from_host_id(3);
  config.out_ip = net::Ipv4Addr{10, 9, 0, 3};
  return config;
}

// Builds `count` PITCH datagrams for unit 0, 1..4 messages each, with
// consecutive sequence numbers. Returns the per-datagram payload bytes.
std::vector<std::vector<std::byte>> build_stream(std::size_t count, sim::Rng& rng) {
  std::vector<std::vector<std::byte>> datagrams;
  proto::pitch::FrameBuilder builder{
      0, 1458, [&datagrams](std::vector<std::byte> payload, const proto::pitch::UnitHeader&) {
        datagrams.push_back(std::move(payload));
      }};
  for (std::size_t d = 0; d < count; ++d) {
    const auto messages = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t m = 0; m < messages; ++m) {
      proto::pitch::AddOrder add;
      add.order_id = d * 10 + m + 1;
      add.symbol = proto::Symbol{"AAA"};
      add.price = proto::price_from_dollars(10.0 + static_cast<double>(d));
      add.quantity = 100;
      builder.append(proto::pitch::Message{add});
    }
    builder.flush();
  }
  return datagrams;
}

TEST(LineArbiter, UnionCoverageReproducesLosslessStreamExactly) {
  constexpr int kCases = 120;
  for (int c = 0; c < kCases; ++c) {
    const auto seed = static_cast<std::uint64_t>(c) * 7919 + 17;
    sim::Rng rng{seed};
    sim::Engine engine;
    ArbiterConfig config = test_config();
    // Far larger than the worst scripted jitter: a held datagram must
    // always be resolved by the lagging line, never by a gap declaration.
    config.gap_timeout = sim::millis(std::int64_t{5});
    LineArbiter arb{engine, config};
    std::vector<std::vector<std::byte>> output;
    arb.set_output_tap([&output](std::uint8_t, std::uint32_t,
                                 std::span<const std::byte> payload) {
      output.emplace_back(payload.begin(), payload.end());
    });

    const auto lossless = build_stream(40, rng);
    for (std::size_t d = 0; d < lossless.size(); ++d) {
      bool on_a = rng.bernoulli(0.7);
      bool on_b = rng.bernoulli(0.7);
      if (!on_a && !on_b) {  // the property's precondition: A∪B covers all
        (rng.bernoulli(0.5) ? on_a : on_b) = true;
      }
      // Nominal spacing 10 us, per-line jitter up to 25 us: copies reorder
      // across datagram boundaries and between lines. Datagram 0 is
      // delivered un-jittered at t=0 so the arbiter syncs at the true
      // stream head (the receiver is up before the stream starts) rather
      // than mid-stream, where discarding the pre-sync prefix is correct.
      const sim::Time base = sim::Time::zero() + sim::micros(static_cast<std::int64_t>(d) * 10);
      const std::vector<std::byte>& payload = lossless[d];
      if (on_a) {
        const auto jitter = sim::micros(d == 0 ? 0 : rng.uniform_int(0, 25));
        engine.schedule_at(base + jitter,
                           [&arb, &payload] { arb.on_datagram(Line::kA, payload); });
      }
      if (on_b) {
        const auto jitter = sim::micros(d == 0 ? 0 : rng.uniform_int(0, 25));
        engine.schedule_at(base + jitter,
                           [&arb, &payload] { arb.on_datagram(Line::kB, payload); });
      }
    }
    engine.run();

    ASSERT_EQ(output.size(), lossless.size()) << "seed " << seed;
    for (std::size_t d = 0; d < lossless.size(); ++d) {
      ASSERT_EQ(output[d], lossless[d]) << "seed " << seed << " datagram " << d;
    }
    EXPECT_EQ(arb.stats().dual_gaps, 0u) << "seed " << seed;
    EXPECT_EQ(arb.stats().sequences_lost, 0u) << "seed " << seed;
    EXPECT_EQ(arb.stats().forwarded, lossless.size()) << "seed " << seed;
  }
}

TEST(LineArbiter, DuplicateCopiesAreDiscarded) {
  sim::Engine engine;
  LineArbiter arb{engine, test_config()};
  sim::Rng rng{1};
  const auto stream = build_stream(5, rng);
  for (const auto& payload : stream) {
    arb.on_datagram(Line::kA, payload);
    arb.on_datagram(Line::kB, payload);
  }
  EXPECT_EQ(arb.stats().forwarded, 5u);
  EXPECT_EQ(arb.stats().duplicates, 5u);
  EXPECT_EQ(arb.stats().dual_gaps, 0u);
}

TEST(LineArbiter, DualGapIsDeclaredOnlyAfterTimeout) {
  sim::Engine engine;
  ArbiterConfig config = test_config();
  config.gap_timeout = sim::micros(std::int64_t{100});
  LineArbiter arb{engine, config};
  std::vector<std::uint32_t> forwarded_seqs;
  arb.set_output_tap([&forwarded_seqs](std::uint8_t, std::uint32_t seq,
                                       std::span<const std::byte>) {
    forwarded_seqs.push_back(seq);
  });
  sim::Rng rng{2};
  const auto stream = build_stream(3, rng);  // sequences 1.., contiguous
  arb.on_datagram(Line::kA, stream[0]);
  // Datagram 1 lost on BOTH lines; datagram 2 arrives ahead of sequence.
  arb.on_datagram(Line::kB, stream[2]);
  EXPECT_EQ(arb.stats().held, 1u);
  EXPECT_EQ(arb.stats().forwarded, 1u);

  // Before the timeout nothing is declared...
  engine.run_until(engine.now() + sim::micros(std::int64_t{50}));
  EXPECT_EQ(arb.stats().dual_gaps, 0u);
  // ...after it, the held datagram is released past the hole.
  engine.run_until(engine.now() + sim::micros(std::int64_t{100}));
  EXPECT_EQ(arb.stats().dual_gaps, 1u);
  EXPECT_EQ(arb.stats().forwarded, 2u);
  const auto first_header = proto::pitch::peek_header(stream[0]);
  const auto second_header = proto::pitch::peek_header(stream[1]);
  ASSERT_TRUE(first_header && second_header);
  EXPECT_EQ(arb.stats().sequences_lost, second_header->count);
  // A straggling copy of the skipped datagram must NOT be forwarded late —
  // downstream consumers would rewind their sequence tracking.
  arb.on_datagram(Line::kA, stream[1]);
  EXPECT_EQ(arb.stats().forwarded, 2u);
  EXPECT_EQ(arb.stats().duplicates, 1u);
  ASSERT_EQ(forwarded_seqs.size(), 2u);
  EXPECT_EQ(forwarded_seqs[0], first_header->sequence);
}

TEST(LineArbiter, MalformedDatagramsAreCountedNotForwarded) {
  sim::Engine engine;
  LineArbiter arb{engine, test_config()};
  const std::vector<std::byte> junk(3, std::byte{0x5a});
  arb.on_datagram(Line::kA, junk);
  EXPECT_EQ(arb.stats().malformed, 1u);
  EXPECT_EQ(arb.stats().forwarded, 0u);
}

}  // namespace
}  // namespace tsn::trading
