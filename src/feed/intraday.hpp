// Intraday event-rate profile — Figure 2(b).
//
// The paper's figure: options market-data events affecting the BBO for a
// single stock across all 18 options exchanges, one trading day, counted in
// one-second windows. Trading runs 9:30-16:00 with almost nothing outside;
// the median second exceeds 300k events and the busiest second reaches
// 1.5M. The shape is the classic intraday "smile": an open burst, a midday
// trough, and a ramp into the close, with heavy-tailed spike seconds on
// top (correlated bursts, §2).
#pragma once

#include <cstdint>
#include <vector>

namespace tsn::feed {

// The trading session, in seconds since midnight.
inline constexpr std::uint32_t kOpenSecond = 9 * 3600 + 30 * 60;  // 9:30am
inline constexpr std::uint32_t kCloseSecond = 16 * 3600;          // 4:00pm

class IntradayProfile {
 public:
  // Deterministic shape multiplier at a given second since midnight
  // (1.0 = trough level inside trading hours; ~0 outside).
  [[nodiscard]] double shape(std::uint32_t second_of_day) const noexcept;

  // Simulated per-second event counts for a whole day (86400 entries,
  // indexed by second since midnight). Deterministic per seed.
  [[nodiscard]] std::vector<std::uint64_t> second_counts(std::uint64_t seed) const;
};

}  // namespace tsn::feed
