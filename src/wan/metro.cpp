#include "wan/metro.hpp"

namespace tsn::wan {

namespace {

constexpr double kSpeedOfLight = 299'792'458.0;  // m/s

// Approximate geodesics for the northern-New-Jersey triangle.
constexpr double kMahwahSecaucus = 40'000.0;   // ~25 miles
constexpr double kSecaucusCarteret = 16'000.0; // ~10 miles
constexpr double kMahwahCarteret = 56'000.0;   // ~35 miles

}  // namespace

WanTechParams params_for(LinkTech tech) noexcept {
  switch (tech) {
    case LinkTech::kFiber:
      return WanTechParams{0.66, 1.40, 100'000'000'000, 0.0};
    case LinkTech::kMicrowave:
      // Near-c in air, near-geodesic towers, but ~1 Gb/s and rain fade.
      return WanTechParams{0.9997, 1.05, 1'000'000'000, 0.02};
  }
  return {};
}

double geodesic_meters(Colo a, Colo b) noexcept {
  if (a == b) return 0.0;
  const auto pair = static_cast<int>(a) + static_cast<int>(b);
  // Mahwah(0)+Secaucus(1)=1, Secaucus(1)+Carteret(2)=3, Mahwah(0)+Carteret(2)=2.
  switch (pair) {
    case 1:
      return kMahwahSecaucus;
    case 3:
      return kSecaucusCarteret;
    default:
      return kMahwahCarteret;
  }
}

sim::Duration propagation_delay(Colo a, Colo b, LinkTech tech) noexcept {
  const WanTechParams p = params_for(tech);
  const double meters = geodesic_meters(a, b) * p.path_inflation;
  const double seconds = meters / (kSpeedOfLight * p.speed_fraction_of_c);
  return sim::seconds(seconds);
}

net::LinkConfig wan_link_config(Colo a, Colo b, LinkTech tech, bool raining) noexcept {
  const WanTechParams p = params_for(tech);
  net::LinkConfig config;
  config.rate_bps = p.rate_bps;
  config.propagation = propagation_delay(a, b, tech);
  config.queue_capacity_bytes = 4 << 20;
  config.loss_probability = raining ? p.weather_loss : 0.0;
  config.span_kind = telemetry::SpanKind::kWan;
  return config;
}

void schedule_rain_fade(fault::FaultInjector& injector, const std::string& link_name,
                        sim::Time start, sim::Duration rise, sim::Duration fall,
                        LinkTech tech) {
  const double peak = params_for(tech).weather_loss;
  if (peak <= 0.0) return;
  injector.ramp_loss(link_name, start, rise, fall, peak);
}

}  // namespace tsn::wan
