#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "feed/burst.hpp"
#include "feed/framelen.hpp"
#include "net/headers.hpp"
#include "feed/intraday.hpp"
#include "feed/symbols.hpp"
#include "feed/trend.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::feed {
namespace {

TEST(SymbolUniverse, DeterministicAndWellFormed) {
  SymbolUniverse a{100, 7};
  SymbolUniverse b{100, 7};
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).symbol, b.at(i).symbol);
    EXPECT_FALSE(a.at(i).symbol.view().empty());
    EXPECT_GT(a.at(i).reference_price, 0);
    EXPECT_GT(a.at(i).weight, 0.0);
  }
  // Symbols are unique.
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_NE(a.at(i).symbol, a.at(0).symbol);
}

TEST(SymbolUniverse, WeightsAreSkewedTowardEarlyRanks) {
  SymbolUniverse u{1'000, 11};
  double head = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    total += u.weights()[i];
    if (i < 100) head += u.weights()[i];
  }
  EXPECT_GT(head / total, 0.5);  // top 10% of names carry most activity
}

// --- Figure 2(a) --------------------------------------------------------------

TEST(Trend, GrowthMatchesPaperFivexOverFiveYears) {
  MarketDataTrendModel model;
  const double start = model.expected_events_per_day(2020.0);
  const double end = model.expected_events_per_day(2025.0);
  EXPECT_NEAR(end / start, 6.0, 0.01);  // "increased 500%" = 6x
}

TEST(Trend, DailyCountsAreTensOfBillions) {
  MarketDataTrendModel model;
  const auto series = model.daily_series();
  ASSERT_EQ(series.size(), 5u * 252u);
  telemetry::Histogram recent;
  for (const auto& point : series) {
    if (point.year == 2024) recent.add(point.events);
  }
  // Tens of billions of events/day; >500k events/s daily average (§3).
  EXPECT_GT(recent.mean(), 2e10);
  EXPECT_GT(MarketDataTrendModel::events_per_second(recent.mean()), 500'000.0);
}

TEST(Trend, DayToDayVariabilityIsVisible) {
  MarketDataTrendModel model;
  const auto series = model.daily_series();
  telemetry::Histogram y2022;
  for (const auto& point : series) {
    if (point.year == 2022) y2022.add(point.events);
  }
  EXPECT_GT(y2022.max() / y2022.min(), 1.5);  // visible spread within a year
}

TEST(Trend, SeriesIsDeterministicPerSeed) {
  MarketDataTrendModel a{99};
  MarketDataTrendModel b{99};
  const auto sa = a.daily_series();
  const auto sb = b.daily_series();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i].events, sb[i].events);
}

// --- Figure 2(b) --------------------------------------------------------------

TEST(Intraday, QuietOutsideTradingHours) {
  IntradayProfile profile;
  EXPECT_LT(profile.shape(8 * 3600), 0.01);
  EXPECT_LT(profile.shape(17 * 3600), 0.01);
  EXPECT_GE(profile.shape(10 * 3600), 1.0);
}

TEST(Intraday, OpenAndCloseAreElevated) {
  IntradayProfile profile;
  const double open = profile.shape(9 * 3600 + 30 * 60);
  const double noon = profile.shape(12 * 3600 + 30 * 60);
  const double close = profile.shape(16 * 3600 - 60);
  EXPECT_GT(open, 1.8 * noon);
  EXPECT_GT(close, 1.4 * noon);
}

TEST(Intraday, SecondCountsMatchFigure2bCalibration) {
  IntradayProfile profile;
  const auto counts = profile.second_counts(2024);
  ASSERT_EQ(counts.size(), 86'400u);
  telemetry::Histogram session;
  for (std::uint32_t sec = 0; sec < 86'400; ++sec) {
    if (sec >= kOpenSecond && sec < kCloseSecond) {
      session.add(static_cast<double>(counts[sec]));
    } else {
      EXPECT_LT(counts[sec], 3'000u) << "after-hours activity too high at " << sec;
    }
  }
  // Median second > 300k events; busiest ~1.5M (paper: 300k / 1.5M).
  EXPECT_GT(session.median(), 300'000.0);
  EXPECT_LT(session.median(), 500'000.0);
  EXPECT_GT(session.max(), 1'000'000.0);
  EXPECT_LT(session.max(), 2'200'000.0);
}

// --- Figure 2(c) --------------------------------------------------------------

TEST(Burst, WindowCountsPreserveTotal) {
  BurstMicrostructure burst;
  const auto counts = burst.window_counts(1'500'000, 7);
  ASSERT_EQ(counts.size(), 10'000u);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_NEAR(static_cast<double>(total), 1.5e6, 0.05e6);
}

TEST(Burst, ShapeMatchesFigure2cCalibration) {
  BurstMicrostructure burst;
  const auto counts = burst.window_counts(1'500'000, 42);
  telemetry::Histogram stats;
  for (auto c : counts) stats.add(static_cast<double>(c));
  // Paper: median 129 events / 100 us, busiest window 1066.
  EXPECT_GT(stats.median(), 90.0);
  EXPECT_LT(stats.median(), 165.0);
  EXPECT_GT(stats.max(), 700.0);
  EXPECT_LT(stats.max(), 1'800.0);
  // Peak-to-median ratio near the paper's ~8x.
  EXPECT_GT(stats.max() / stats.median(), 5.0);
}

TEST(Burst, EventTimesAreOrderedWithinWindowsAndInRange) {
  BurstMicrostructure burst;
  BurstConfig tiny;
  tiny.window_count = 100;
  BurstMicrostructure small{tiny};
  const auto counts = small.window_counts(5'000, 3);
  const auto window = sim::micros(std::int64_t{100});
  const auto start = sim::Time::zero() + sim::seconds(std::int64_t{41'000});
  const auto times = BurstMicrostructure::event_times(counts, start, window, 9);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  ASSERT_EQ(times.size(), total);
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GE(times[i], times[i - 1]);
  EXPECT_GE(times.front(), start);
  EXPECT_LT(times.back(), start + window * 100);
}

// --- Table 1 -------------------------------------------------------------------

struct ProfileCase {
  const char* label;
  FeedProfile profile;
  double min_target;
  double avg_target;
  double median_target;
  double max_target;
};

// Without this, gtest names each case by a byte dump of ProfileCase, which
// holds pointers, so the ctest names discovered at build time would change
// from one build (and one process) to the next.
void PrintTo(const ProfileCase& c, std::ostream* os) { *os << "Exchange " << c.label; }

class FrameLengthTest : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(FrameLengthTest, MatchesTable1Shape) {
  const auto& param = GetParam();
  FrameLengthSampler sampler{param.profile, 1234};
  telemetry::Histogram stats;
  for (int i = 0; i < 50'000; ++i) {
    stats.add(static_cast<double>(sampler.next_frame_length()));
  }
  // Table 1 is a production sample; we require the same shape: the min
  // within a few bytes, max exact (MTU policy), median/avg within ~20%.
  EXPECT_NEAR(stats.min(), param.min_target, 9.0) << param.label;
  EXPECT_EQ(stats.max(), param.max_target) << param.label;
  EXPECT_NEAR(stats.median(), param.median_target, param.median_target * 0.2) << param.label;
  EXPECT_NEAR(stats.mean(), param.avg_target, param.avg_target * 0.25) << param.label;
  // All frames are legal Ethernet sizes.
  EXPECT_GE(stats.min(), 64.0);
  EXPECT_LE(stats.max(), 1514.0);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, FrameLengthTest,
    ::testing::Values(ProfileCase{"A", exchange_a_profile(), 73, 92, 89, 1514},
                      ProfileCase{"B", exchange_b_profile(), 64, 113, 76, 1067},
                      ProfileCase{"C", exchange_c_profile(), 81, 151, 101, 1442}),
    [](const ::testing::TestParamInfo<ProfileCase>& info) {
      return std::string{"Exchange"} + info.param.label;
    });

TEST(FrameLength, FramesAreDecodableMarketData) {
  FrameLengthSampler sampler{exchange_a_profile(), 99};
  proto::pitch::DecodedBatch batch;
  for (int i = 0; i < 200; ++i) {
    const auto frame = sampler.next_frame();
    const auto decoded = net::decode_frame(frame);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(decoded->is_udp());
    EXPECT_TRUE(decoded->ip->dst.is_multicast());
    EXPECT_TRUE(proto::pitch::decode_batch(decoded->payload, batch));
    EXPECT_GT(batch.count, 0u);
  }
}

}  // namespace
}  // namespace tsn::feed
