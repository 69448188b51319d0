#include "feed/trend.hpp"

#include <cmath>

#include "sim/random.hpp"

namespace tsn::feed {

namespace {

constexpr int kFirstYear = 2020;
constexpr int kLastYear = 2024;
// Mean events per day at the start of kFirstYear.
constexpr double kBaseEventsPerDay = 3.4e10;
// Total growth multiple across the modelled span (500% growth = 6x).
constexpr double kGrowthMultiple = 6.0;
// Day-to-day lognormal variability (sigma of log).
constexpr double kDailySigma = 0.22;
// Occasional high-volatility days (macro events) this much larger.
constexpr double kShockProbability = 0.02;
constexpr double kShockMultiplier = 2.2;

}  // namespace

MarketDataTrendModel::MarketDataTrendModel(std::uint64_t seed) : seed_(seed) {}

double MarketDataTrendModel::expected_events_per_day(double year) const noexcept {
  const double span = static_cast<double>(kLastYear + 1 - kFirstYear);
  double t = (year - static_cast<double>(kFirstYear)) / span;
  if (t < 0.0) t = 0.0;
  if (t > 1.0) t = 1.0;
  // Exponential growth reaching kGrowthMultiple at the end of the span.
  return kBaseEventsPerDay * std::pow(kGrowthMultiple, t);
}

std::vector<TrendPoint> MarketDataTrendModel::daily_series() const {
  constexpr int kTradingDaysPerYear = 252;
  sim::Rng rng{seed_};
  std::vector<TrendPoint> out;
  out.reserve(static_cast<std::size_t>(kLastYear - kFirstYear + 1) * kTradingDaysPerYear);
  for (int year = kFirstYear; year <= kLastYear; ++year) {
    for (int day = 0; day < kTradingDaysPerYear; ++day) {
      const double fractional_year =
          static_cast<double>(year) + static_cast<double>(day) / kTradingDaysPerYear;
      double events = expected_events_per_day(fractional_year);
      events *= rng.lognormal(-0.5 * kDailySigma * kDailySigma, kDailySigma);  // mean-one noise
      if (rng.bernoulli(kShockProbability)) events *= kShockMultiplier;
      out.push_back(TrendPoint{year, day, events});
    }
  }
  return out;
}

}  // namespace tsn::feed
