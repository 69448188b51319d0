#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "telemetry/json.hpp"

namespace tsn::telemetry {

void Histogram::add(double value) {
  samples_.push_back(value);
  sorted_ = false;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (double v : other.samples_) add(v);
}

void Histogram::clear() noexcept {
  samples_.clear();
  sorted_ = true;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

double Histogram::min() const noexcept { return samples_.empty() ? 0.0 : min_; }
double Histogram::max() const noexcept { return samples_.empty() ? 0.0 : max_; }

double Histogram::mean() const noexcept {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Histogram::percentile(double p) const {
  // Range is checked before the empty short-circuit so that an out-of-range
  // p is rejected consistently, empty or not.
  if (p < 0.0 || p > 100.0) throw std::invalid_argument{"percentile out of range"};
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p == 0.0) return samples_.front();
  const auto n = samples_.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  TSN_DCHECK(rank >= 1 && rank <= n, "nearest-rank index out of bounds");
  return samples_[rank - 1];
}

void Registry::histogram_ref(const std::string& name, const Histogram& h) {
  histogram_refs_[name] = &h;
}

void Registry::gauge(const std::string& name, GaugeFn fn) { gauges_[name] = std::move(fn); }

double Registry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second();
}

std::string Registry::to_json(sim::Time at) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "tsn-metrics-v1");
  w.field("at_ps", at.picos());
  w.key("counters");
  w.begin_object();
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, fn] : gauges_) w.field(name, fn());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histogram_refs_) {
    w.key(name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(h->count()));
    w.field("min", h->min());
    w.field("mean", h->mean());
    w.field("p50", h->percentile(50.0));
    w.field("p99", h->percentile(99.0));
    w.field("max", h->max());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace tsn::telemetry
