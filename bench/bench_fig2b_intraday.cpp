// F2b — Figure 2(b): "Options events for a single stock on a single day",
// counted in 1-second windows across the trading day.
//
// Regenerates the per-second series and prints the hour-by-hour shape plus
// the paper's calibration points: trading confined to 9:30-16:00, median
// second over 300k events, busiest second ~1.5M.
#include <cstdio>

#include "feed/intraday.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

int main() {
  using namespace tsn;
  feed::IntradayProfile profile;
  const auto counts = profile.second_counts(2024);

  std::printf("F2b: options events for one stock, one day, 1-second windows\n\n");
  std::printf("%8s %12s %12s %12s\n", "hour", "mean/s", "max/s", "active-sec");
  for (int hour = 8; hour <= 16; ++hour) {
    telemetry::Histogram stats;
    int active = 0;
    for (int sec = hour * 3600; sec < (hour + 1) * 3600 && sec < 86'400; ++sec) {
      const auto c = counts[static_cast<std::size_t>(sec)];
      stats.add(static_cast<double>(c));
      if (c > 1'000) ++active;
    }
    std::printf("%7d: %12.0f %12.0f %12d\n", hour, stats.mean(), stats.max(), active);
  }

  telemetry::Histogram session;
  std::size_t busiest_second = 0;
  for (std::uint32_t sec = feed::kOpenSecond; sec < feed::kCloseSecond; ++sec) {
    session.add(static_cast<double>(counts[sec]));
    if (counts[sec] > counts[busiest_second]) busiest_second = sec;
  }
  std::printf("\nsession (9:30-16:00) statistics:\n");
  std::printf("  median second: %8.0f events   (paper: over 300k)\n", session.median());
  std::printf("  busiest second: %7.0f events   (paper: 1.5M)\n", session.max());
  std::printf("  busiest second at %02zu:%02zu:%02zu\n", busiest_second / 3600,
              (busiest_second % 3600) / 60, busiest_second % 60);
  std::printf("  p99 second:    %8.0f events\n", session.percentile(99.0));
  std::printf(
      "\nprocessing budget in the busiest second: %.0f ns/event "
      "(paper: ~650 ns at 1.5M/s)\n",
      1e9 / session.max());

  bench::Report bench_report{"fig2b_intraday",
                             "Figure 2(b): per-second event counts across one day"};
  bench_report.param("year", std::int64_t{2024});
  bench_report.param("open_second", static_cast<std::int64_t>(feed::kOpenSecond));
  bench_report.param("close_second", static_cast<std::int64_t>(feed::kCloseSecond));
  bench_report.stats("session_events_per_sec", session, "events/s");
  bench_report.metric("busiest_second_at", static_cast<double>(busiest_second), "s");
  bench_report.metric("busiest_second_budget_ns_per_event", 1e9 / session.max(), "ns");
  // Paper calibration points: median second over 300k, busiest ~1.5M.
  bench_report.check("median_over_300k", session.median() > 300'000.0);
  bench_report.check("busiest_near_1_5M",
                     session.max() > 1'200'000.0 && session.max() < 1'800'000.0);
  bench_report.check("trading_confined_to_session",
                     counts[feed::kOpenSecond - 1] <
                         counts[static_cast<std::size_t>(busiest_second)] / 10);
  return bench_report.finish();
}
