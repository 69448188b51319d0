// The metrics vocabulary: one Counter / Histogram / gauge API for every sim
// entity, plus a Registry that names them and snapshots deterministically.
//
// Histogram, WindowedCounter and LatencyTracker are the only stats types:
// switches, mroute tables, WAN links, sessions and capture appliances share
// a single registration surface (`register_metrics`) and a single export
// path (`Registry::to_json`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace tsn::telemetry {

// Accumulates samples and reports min/avg/median/max and percentiles.
// Samples are retained (the workloads here are at most a few million
// samples), so percentiles are exact.
class Histogram {
 public:
  void add(double value);
  // Appends every sample of `other` (exact pooled statistics).
  void merge(const Histogram& other);
  void clear() noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  // Exact percentile by nearest-rank. Sorts lazily. Edge cases are defined
  // and pinned in test_sim_stats.cpp:
  //   - p outside [0, 100] throws std::invalid_argument, empty or not;
  //   - an empty histogram returns 0.0 for any in-range p (matching
  //     min()/max()/mean() on empty);
  //   - p == 0 returns the smallest sample, p == 100 the largest;
  //   - a single-sample histogram returns that sample for every p.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  // "min avg median max" row matching the layout of the paper's Table 1.
  [[nodiscard]] std::string table_row() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// A monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

// Fixed-width time-window counter: counts events per window of a given
// duration, for reproducing Figure 2(b) (1 s windows) and 2(c) (100 us
// windows).
class WindowedCounter {
 public:
  WindowedCounter(sim::Time origin, sim::Duration window);

  void record(sim::Time at, std::uint64_t count = 1);

  [[nodiscard]] sim::Duration window() const noexcept { return window_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

  // Statistics over the non-empty range of windows (or all windows when
  // include_empty is true).
  [[nodiscard]] Histogram stats(bool include_empty = false) const;

 private:
  sim::Time origin_;
  sim::Duration window_;
  std::vector<std::uint64_t> counts_;
};

// Matches cause/effect event pairs and accumulates latency samples — the
// paper's strategy-latency measurement (order-out time minus most recent
// input-event time), as computed by a capture appliance.
class LatencyTracker {
 public:
  void record_cause(std::uint64_t cause_id, sim::Time at);
  // Records the effect and, if the cause is known, adds a latency sample
  // (in nanoseconds). Returns true when matched.
  bool record_effect(std::uint64_t cause_id, sim::Time at);

  [[nodiscard]] const Histogram& latencies_ns() const noexcept { return samples_; }
  [[nodiscard]] std::uint64_t unmatched_effects() const noexcept { return unmatched_; }

 private:
  std::unordered_map<std::uint64_t, sim::Time> causes_;
  Histogram samples_;
  std::uint64_t unmatched_ = 0;
};

// Named metrics for one run. Entities register counters/histograms they own
// (references stay valid for the registry's lifetime: node-based map) or
// gauges — callbacks sampled at snapshot time, which lets existing stats
// structs (LinkStats, SwitchStats, MrouteStats, ...) be exported without
// rewriting them. Names sort lexicographically in the export, so snapshots
// of identical runs are byte-identical.
class Registry {
 public:
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);
  // Exports an entity-owned histogram without copying it; `h` must outlive
  // the registry. Appears alongside owned histograms in the snapshot.
  void histogram_ref(const std::string& name, const Histogram& h);
  using GaugeFn = std::function<double()>;
  void gauge(const std::string& name, GaugeFn fn);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;
  // Samples a gauge now; 0.0 when absent.
  [[nodiscard]] double gauge_value(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + histograms_.size() + gauges_.size();
  }

  // Deterministic snapshot at simulation time `at`:
  // {"schema":"tsn-metrics-v1","at_ps":...,"counters":{...},"gauges":{...},
  //  "histograms":{name:{count,min,mean,p50,p99,max},...}}.
  [[nodiscard]] std::string to_json(sim::Time at) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, const Histogram*> histogram_refs_;
  std::map<std::string, GaugeFn> gauges_;
};

}  // namespace tsn::telemetry
