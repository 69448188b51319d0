#include "feed/burst.hpp"

#include <cmath>

#include "sim/random.hpp"

namespace tsn::feed {

std::vector<std::uint64_t> BurstMicrostructure::window_counts(std::uint64_t total_events,
                                                              std::uint64_t seed) const {
  sim::Rng rng{seed};
  const std::size_t n = kBurstWindowCount;
  std::vector<double> rate(n, 0.0);
  // Heavy-tailed autocorrelated base process: AR(1) on the log-rate.
  constexpr double kPhi = 0.985;
  constexpr double kSigma = 0.55;
  double x = 0.0;
  const double sigma_innov = kSigma * std::sqrt(1.0 - kPhi * kPhi);
  for (std::size_t i = 0; i < n; ++i) {
    x = kPhi * x + rng.normal(0.0, sigma_innov);
    rate[i] = std::exp(x);
  }
  // Cascades: short multiplicative bursts with exponential decay, brief
  // cluster spikes multiplying the local rate.
  constexpr double kCascadesPerSecond = 25.0;
  constexpr double kCascadeMagnitude = 4.0;
  constexpr double kCascadeDecayWindows = 12.0;
  const auto n_cascades = rng.poisson(kCascadesPerSecond);
  for (std::uint64_t c = 0; c < n_cascades; ++c) {
    const auto at = static_cast<std::size_t>(rng.next_below(n));
    const double magnitude = 1.0 + rng.exponential(kCascadeMagnitude - 1.0);
    for (std::size_t k = 0;
         k < n - at && k < 8 * static_cast<std::size_t>(kCascadeDecayWindows); ++k) {
      rate[at + k] *=
          1.0 + (magnitude - 1.0) * std::exp(-static_cast<double>(k) / kCascadeDecayWindows);
    }
  }
  // Clamp the extreme tail: the paper's busiest window is ~8x the median,
  // not unbounded — cascades saturate (matching engines and gateways pace
  // the message flow).
  double mean_rate = 0.0;
  for (double r : rate) mean_rate += r;
  mean_rate /= static_cast<double>(n);
  const double ceiling = 7.5 * mean_rate;
  for (double& r : rate) {
    if (r > ceiling) r = ceiling;
  }
  double total_rate = 0.0;
  for (double r : rate) total_rate += r;
  std::vector<std::uint64_t> counts(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = static_cast<double>(total_events) * rate[i] / total_rate;
    counts[i] = rng.poisson(mean);
  }
  return counts;
}

}  // namespace tsn::feed
