// Behavioural contract of the shared summary-statistics type
// (telemetry::Histogram): benches, capture appliances, and sim entities all
// report through it.
#include <gtest/gtest.h>

#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace tsn::telemetry {
namespace {

TEST(Histogram, EmptyIsSafe) {
  Histogram s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.median(), 0.0);
}

// The percentile edge-case contract (documented in telemetry/metrics.hpp).
TEST(Histogram, PercentileOnEmptyReturnsZeroForAnyInRangeP) {
  Histogram s;
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 0.0);
}

TEST(Histogram, PercentileOutOfRangeThrowsEvenWhenEmpty) {
  Histogram s;
  EXPECT_THROW((void)s.percentile(-0.001), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(100.001), std::invalid_argument);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 42.0);
}

TEST(Histogram, PercentileZeroAndHundredAreExtremes) {
  Histogram s;
  for (double v : {9.0, 1.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 9.0);
}

TEST(Histogram, BasicMoments) {
  Histogram s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Histogram, PercentilesAreExactNearestRank) {
  Histogram s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(Histogram, PercentileOutOfRangeThrows) {
  Histogram s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(101.0), std::invalid_argument);
}

TEST(Histogram, AddAfterPercentileStillCorrect) {
  Histogram s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);  // nearest-rank of 2 samples
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
}

TEST(Histogram, ClearResets) {
  Histogram s;
  s.add(3.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

}  // namespace
}  // namespace tsn::telemetry
