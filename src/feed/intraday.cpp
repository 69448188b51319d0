#include "feed/intraday.hpp"

#include <algorithm>
#include <cmath>

#include "sim/random.hpp"

namespace tsn::feed {

namespace {

// Baseline (trough) rate in events/second; the smile multiplies this.
constexpr double kBaseRate = 300'000.0;
constexpr double kOpenBoost = 2.4;           // multiplier at the opening bell
constexpr double kCloseBoost = 1.9;          // multiplier at the close
constexpr double kSmileDecayMinutes = 25.0;  // how fast the open burst decays
// Second-to-second lognormal noise (AR(1) on the log-rate).
constexpr double kNoiseSigma = 0.18;
constexpr double kNoisePhi = 0.85;
// Heavy-tailed spike seconds (news, correlated cross-market bursts).
constexpr double kSpikesPerDay = 40.0;
constexpr double kSpikeParetoAlpha = 2.2;
constexpr double kSpikeCap = 4.5;  // max spike multiplier
// Tiny out-of-hours trickle (fraction of base).
constexpr double kAfterHoursFraction = 0.0005;

}  // namespace

double IntradayProfile::shape(std::uint32_t second_of_day) const noexcept {
  if (second_of_day < kOpenSecond || second_of_day >= kCloseSecond) {
    return kAfterHoursFraction;
  }
  const double since_open = static_cast<double>(second_of_day - kOpenSecond);
  const double until_close = static_cast<double>(kCloseSecond - second_of_day);
  const double decay_s = kSmileDecayMinutes * 60.0;
  // Open burst decays exponentially; close ramp grows exponentially over
  // the last ~30 minutes; the floor between them is the trough (1.0).
  const double open_term = (kOpenBoost - 1.0) * std::exp(-since_open / decay_s);
  const double close_term = (kCloseBoost - 1.0) * std::exp(-until_close / (30.0 * 60.0));
  return 1.0 + open_term + close_term;
}

std::vector<std::uint64_t> IntradayProfile::second_counts(std::uint64_t seed) const {
  sim::Rng rng{seed};
  std::vector<std::uint64_t> counts(86'400, 0);
  // AR(1) log-noise state.
  double x = 0.0;
  const double sigma_innov = kNoiseSigma * std::sqrt(1.0 - kNoisePhi * kNoisePhi);
  // Pre-draw spike seconds within trading hours.
  const std::uint32_t session_len = kCloseSecond - kOpenSecond;
  std::vector<double> spike(session_len, 1.0);
  const auto n_spikes = rng.poisson(kSpikesPerDay);
  for (std::uint64_t s = 0; s < n_spikes; ++s) {
    const auto at = static_cast<std::uint32_t>(rng.next_below(session_len));
    const double magnitude = std::min(rng.pareto(1.3, kSpikeParetoAlpha), kSpikeCap);
    // Spikes decay over a few seconds (bursts are short but not instant).
    for (std::uint32_t k = 0; k < 5 && at + k < session_len; ++k) {
      spike[at + k] = std::max(spike[at + k], magnitude * std::exp(-0.7 * k));
    }
  }
  for (std::uint32_t sec = 0; sec < 86'400; ++sec) {
    x = kNoisePhi * x + rng.normal(0.0, sigma_innov);
    double rate = kBaseRate * shape(sec) * std::exp(x);
    if (sec >= kOpenSecond && sec < kCloseSecond) {
      rate *= spike[sec - kOpenSecond];
    }
    counts[sec] = rng.poisson(rate);
  }
  return counts;
}

}  // namespace tsn::feed
