// Multi-year market-data growth model — Figure 2(a).
//
// The paper's figure shows daily event counts for US options + equities
// from 2020 through 2024: tens of billions of events per day (an average
// rate above 500k events/second), substantial day-to-day variability, and
// ~500% growth over the five years (§3, "market data has increased 500%
// over the last 5 years").
#pragma once

#include <cstdint>
#include <vector>

namespace tsn::feed {

struct TrendPoint {
  int year = 0;
  int day_of_year = 0;    // trading day index within the year, 0-based
  double events = 0.0;    // events that day
};

class MarketDataTrendModel {
 public:
  explicit MarketDataTrendModel(std::uint64_t seed = 2020);

  // One point per trading day (252/year), in order.
  [[nodiscard]] std::vector<TrendPoint> daily_series() const;

  // Expected (noise-free) events/day at a fractional year (e.g. 2022.5).
  [[nodiscard]] double expected_events_per_day(double year) const noexcept;

  // Average events/second implied by a daily count over 24h (the paper's
  // ">500k events per second" figure is a whole-day average).
  [[nodiscard]] static double events_per_second(double events_per_day) noexcept {
    return events_per_day / 86'400.0;
  }

 private:
  std::uint64_t seed_;
};

}  // namespace tsn::feed
