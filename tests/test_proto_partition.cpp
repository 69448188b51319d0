#include "proto/partition.hpp"

#include <gtest/gtest.h>

#include "feed/symbols.hpp"

namespace tsn::proto {
namespace {

TEST(Partition, AlphabetBucketsAreOrderedAndCovering) {
  const AlphabetPartition scheme{4};
  EXPECT_EQ(scheme.partition_count(), 4u);
  EXPECT_EQ(scheme.partition_of(Symbol{"APPLE"}, InstrumentKind::kEquity), 0u);
  EXPECT_EQ(scheme.partition_of(Symbol{"ZEBRA"}, InstrumentKind::kEquity), 3u);
  // Every letter maps into range, monotonically.
  std::uint32_t last = 0;
  for (char c = 'A'; c <= 'Z'; ++c) {
    const auto p = scheme.partition_of(Symbol{std::string(1, c)}, InstrumentKind::kEquity);
    EXPECT_LT(p, 4u);
    EXPECT_GE(p, last);
    last = p;
  }
}

TEST(Partition, AlphabetLowercaseAndNonAlphaHandled) {
  const AlphabetPartition scheme{26};
  EXPECT_EQ(scheme.partition_of(Symbol{"apple"}, InstrumentKind::kEquity),
            scheme.partition_of(Symbol{"APPLE"}, InstrumentKind::kEquity));
  EXPECT_EQ(scheme.partition_of(Symbol{"1X"}, InstrumentKind::kEquity), 0u);
}

TEST(Partition, AlphabetRejectsBadBucketCounts) {
  EXPECT_THROW(AlphabetPartition{0}, std::invalid_argument);
  EXPECT_THROW(AlphabetPartition{27}, std::invalid_argument);
}

TEST(Partition, KindSchemeSeparatesInstrumentTypes) {
  const KindPartition scheme;
  EXPECT_EQ(scheme.partition_count(), 4u);
  const Symbol s{"SAME"};
  EXPECT_NE(scheme.partition_of(s, InstrumentKind::kEquity),
            scheme.partition_of(s, InstrumentKind::kEtf));
  EXPECT_NE(scheme.partition_of(s, InstrumentKind::kOption),
            scheme.partition_of(s, InstrumentKind::kFuture));
}

TEST(Partition, HashIsDeterministicAndInRange) {
  const HashPartition scheme{131};
  const auto p1 = scheme.partition_of(Symbol{"ACME"}, InstrumentKind::kEquity);
  const auto p2 = scheme.partition_of(Symbol{"ACME"}, InstrumentKind::kEquity);
  EXPECT_EQ(p1, p2);
  EXPECT_LT(p1, 131u);
  EXPECT_THROW(HashPartition{0}, std::invalid_argument);
}

TEST(Partition, HashBalancesAcrossManySymbols) {
  // §3: firms re-partition with many balanced partitions; a hash scheme
  // must not leave partitions starving.
  const HashPartition scheme{64};
  feed::SymbolUniverse universe{5'000, 123};
  std::vector<int> counts(64, 0);
  for (const auto& inst : universe.instruments()) {
    ++counts[scheme.partition_of(inst.symbol, inst.kind)];
  }
  const double expected = 5'000.0 / 64.0;
  for (int c : counts) {
    EXPECT_GT(c, expected * 0.5);
    EXPECT_LT(c, expected * 1.6);
  }
}

TEST(Partition, SchemesAreInterchangeableThroughTheInterface) {
  auto check = [](const PartitionScheme& scheme) {
    for (const char* name : {"AA", "MM", "ZZ"}) {
      EXPECT_LT(scheme.partition_of(Symbol{name}, InstrumentKind::kEquity),
                scheme.partition_count());
    }
  };
  check(AlphabetPartition{7});
  check(KindPartition{});
  check(HashPartition{33});
}

}  // namespace
}  // namespace tsn::proto
