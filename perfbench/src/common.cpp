#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void TimedReps::add(double setup, double msgs, double span_s,
                    const std::vector<double>& window_us) {
  std::printf("rep %2zu: setup %.4f s, span %.4f s, %.6g msgs/s, window p50 %.1f us, tail %.1f us\n",
              setup_s.size(), setup, span_s, msgs / span_s, median(window_us), tail(window_us));
  setup_s.push_back(setup);
  msgs_per_rep = msgs;
  if (window_best_us.empty()) {
    window_best_us = window_us;
  } else {
    for (std::size_t k = 0; k < window_best_us.size() && k < window_us.size(); ++k) {
      window_best_us[k] = std::min(window_best_us[k], window_us[k]);
    }
  }
}

void TimedReps::report(Result& result) const {
  std::printf("%zu timed reps; %zu windows of 100 sim-us per rep; tail = p%.2f (11th-largest)\n",
              setup_s.size(), window_best_us.size(), tail_percentile(window_best_us.size()));
  result.metric("setup_s", median(setup_s), "s");
  double span_us = 0.0;
  for (const double w : window_best_us) span_us += w;
  result.metric("msgs_per_s", msgs_per_rep / (span_us * 1e-6), "1/s");
  result.metric("window_p50_us", median(window_best_us), "us");
  result.metric("window_tail_us", tail(window_best_us), "us");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

std::vector<Metric> median_rows(const std::vector<std::vector<Metric>>& reps) {
  std::vector<Metric> out;
  if (reps.empty()) return out;
  for (std::size_t i = 0; i < reps.front().size(); ++i) {
    std::vector<double> values;
    for (const auto& rep : reps) values.push_back(rep[i].value);
    out.push_back({reps.front()[i].name, median(values), reps.front()[i].unit});
  }
  return out;
}

void print_budget_row(const Metric& metric) {
  std::printf("  %-36s %12.1f ns  %7.1f%% of 650 ns (Fig 2b)  %8.1f%% of 100 ns (Fig 2c)\n",
              metric.name.c_str(), metric.value, 100.0 * metric.value / 650.0,
              100.0 * metric.value / 100.0);
}

}  // namespace perfbench
