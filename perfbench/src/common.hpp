// Shared plumbing for the wall-clock benchmark: options, the result a
// workload hands back, window timing, and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::uint64_t seed = 0;
  double seconds = 30.0;  // wall budget for the repeated timed (or traced) runs
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload reports: its metrics, its operation counts, and the
// output checks it ran. Any failed check makes the whole run incorrect.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(failed_checks.begin(), failed_checks.end(), what) == failed_checks.end()) {
      failed_checks.push_back(what);
    }
  }
  [[nodiscard]] bool correct() const noexcept { return failed_checks.empty(); }
};

// A ratio that reads 0 when there is nothing to divide by.
[[nodiscard]] inline double per(double numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0 : numerator / static_cast<double>(denominator);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// The highest nearest-rank percentile with at least ten samples beyond it:
// the 11th-largest sample.
[[nodiscard]] inline double tail(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() > 10 ? values.size() - 11 : 0];
}
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  return n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 0.0;
}

// Stamps the wall clock at every 100 sim-µs boundary (the paper's Fig 2c
// window) of a timed span. A marker event at each boundary records the
// time; the events only read the clock, so the simulated outputs are the
// same with or without them.
class WindowClock {
 public:
  static constexpr tsn::sim::Duration kWindow = tsn::sim::micros(std::int64_t{100});

  WindowClock() = default;
  WindowClock(const WindowClock&) = delete;
  WindowClock& operator=(const WindowClock&) = delete;

  // Schedules markers at start, start + 100 µs, ... up to and including end.
  void arm(tsn::sim::Scheduler& scheduler, tsn::sim::Time start, tsn::sim::Time end) {
    scheduler_ = &scheduler;
    next_ = start;
    end_ = end;
    marks_.clear();
    marks_.reserve(static_cast<std::size_t>((end - start) / kWindow) + 1);
    scheduler_->schedule_at(next_, [this] { fire(); });
  }

  // Engine events the markers added.
  [[nodiscard]] std::uint64_t markers() const noexcept { return marks_.size(); }

  // Wall µs per window.
  [[nodiscard]] std::vector<double> window_us() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < marks_.size(); ++i) {
      out.push_back(seconds_between(marks_[i - 1], marks_[i]) * 1e6);
    }
    return out;
  }

 private:
  void fire() {
    marks_.push_back(Clock::now());
    next_ += kWindow;
    if (next_ <= end_) scheduler_->schedule_at(next_, [this] { fire(); });
  }

  tsn::sim::Scheduler* scheduler_ = nullptr;
  tsn::sim::Time next_;
  tsn::sim::Time end_;
  std::vector<Clock::time_point> marks_;
};

// FNV-1a fold of simulated outputs, for the repeat and traced-run checks.
struct Fnv {
  std::uint64_t hash = 1469598103934665603ull;
  void mix(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
};

// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// The end-to-end rows every workload reports from its timed repetitions.
// Interference from the rest of the host only ever slows a repetition
// down, and often comes and goes within one, so each 100 µs window (the
// same simulated work in every repetition of one seed) is timed at its
// fastest repetition. The windows tile the timed span:
// throughput is the span's messages over the sum of those window times,
// and the window rows are their median and tail. Set-up time is the median
// set-up.
struct TimedReps {
  std::vector<double> setup_s;
  double msgs_per_rep = 0.0;  // the same in every repetition of one seed
  std::vector<double> window_best_us;

  void add(double setup, double msgs, double span_s, const std::vector<double>& window_us);
  void report(Result& result) const;
};

// Medians, row by row, of repetitions that each report the same rows.
[[nodiscard]] std::vector<Metric> median_rows(const std::vector<std::vector<Metric>>& reps);

// Runs `rep` until `seconds` of wall time have passed, and at least
// `min_reps` times.
template <typename Rep>
void repeat_for(double seconds, std::size_t min_reps, Rep&& rep) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < min_reps || seconds_between(start, Clock::now()) < seconds; ++i) {
    rep(i);
  }
}

// The paper's per-event budgets: ~650 ns in the busiest second (Fig 2b),
// ~100 ns in the busiest 100 µs window (Fig 2c).
void print_budget_row(const Metric& metric);

}  // namespace perfbench
