// Sub-second burst microstructure — Figure 2(c).
//
// Inside the busiest second of the day, the paper counts events in 100 µs
// windows: the median window holds 129 events, the busiest 1066 — an 8x
// peak-to-median ratio at a timescale where a software system gets ~100 ns
// per event. Events cluster (order-book cascades), so the per-window rate
// follows a strongly autocorrelated heavy-tailed process, not a flat
// Poisson.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsn::feed {

// 100 us windows in one second.
inline constexpr std::size_t kBurstWindowCount = 10'000;

class BurstMicrostructure {
 public:
  // Distributes `total_events` across the windows. The returned counts sum
  // to ~total_events (each window is Poisson around its share).
  [[nodiscard]] std::vector<std::uint64_t> window_counts(std::uint64_t total_events,
                                                         std::uint64_t seed) const;
};

}  // namespace tsn::feed
