// Sub-second burst microstructure — Figure 2(c).
//
// Inside the busiest second of the day, the paper counts events in 100 µs
// windows: the median window holds 129 events, the busiest 1066 — an 8x
// peak-to-median ratio at a timescale where a software system gets ~100 ns
// per event. Events cluster (order-book cascades), so the per-window rate
// follows a strongly autocorrelated heavy-tailed process, not a flat
// Poisson.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace tsn::feed {

struct BurstConfig {
  std::size_t window_count = 10'000;  // 100 us windows in one second
};

class BurstMicrostructure {
 public:
  explicit BurstMicrostructure(BurstConfig config = {});

  // Distributes `total_events` across the windows. The returned counts sum
  // to ~total_events (each window is Poisson around its share).
  [[nodiscard]] std::vector<std::uint64_t> window_counts(std::uint64_t total_events,
                                                         std::uint64_t seed) const;

  // Expands window counts into event timestamps (uniform within each
  // window), offset from `second_start`. Used to drive simulations with a
  // faithful arrival process.
  [[nodiscard]] static std::vector<sim::Time> event_times(
      const std::vector<std::uint64_t>& counts, sim::Time second_start, sim::Duration window,
      std::uint64_t seed);

  [[nodiscard]] const BurstConfig& config() const noexcept { return config_; }

 private:
  BurstConfig config_;
};

}  // namespace tsn::feed
