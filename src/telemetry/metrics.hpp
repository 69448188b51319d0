// The metrics vocabulary: one Counter / Histogram / gauge API for every sim
// entity, plus a Registry that names them and snapshots deterministically.
//
// Histogram is the only stats type: switches, mroute tables, WAN links,
// sessions and capture appliances share a single registration surface
// (`register_metrics`) and a single export path (`Registry::to_json`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
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
  [[nodiscard]] double mean() const noexcept;

  // Exact percentile by nearest-rank. Sorts lazily. Edge cases are defined
  // and pinned in test_sim_stats.cpp:
  //   - p outside [0, 100] throws std::invalid_argument, empty or not;
  //   - an empty histogram returns 0.0 for any in-range p (matching
  //     min()/max()/mean() on empty);
  //   - p == 0 returns the smallest sample, p == 100 the largest;
  //   - a single-sample histogram returns that sample for every p.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Named metrics for one run. Entities register gauges — callbacks sampled
// at snapshot time, which lets existing stats structs (LinkStats,
// SwitchStats, MrouteStats, ...) be exported without rewriting them — and
// references to the histograms they own. Names sort lexicographically in
// the export, so snapshots of identical runs are byte-identical.
class Registry {
 public:
  // Exports an entity-owned histogram without copying it; `h` must outlive
  // the registry.
  void histogram_ref(const std::string& name, const Histogram& h);
  using GaugeFn = std::function<double()>;
  void gauge(const std::string& name, GaugeFn fn);

  // Samples a gauge now; 0.0 when absent.
  [[nodiscard]] double gauge_value(const std::string& name) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return histogram_refs_.size() + gauges_.size();
  }

  // Deterministic snapshot at simulation time `at`:
  // {"schema":"tsn-metrics-v1","at_ps":...,"counters":{},"gauges":{...},
  //  "histograms":{name:{count,min,mean,p50,p99,max},...}}. Every count is
  // a gauge; the empty counters object keeps the schema's shape.
  [[nodiscard]] std::string to_json(sim::Time at) const;

 private:
  std::map<std::string, const Histogram*> histogram_refs_;
  std::map<std::string, GaugeFn> gauges_;
};

}  // namespace tsn::telemetry
