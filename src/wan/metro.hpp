// Inter-colo WAN modelling (§2).
//
// Trading on all US equities markets means servers in three co-location
// facilities tens of miles apart (Figure 1a): Mahwah (NYSE family),
// Secaucus (Cboe/MIAX families), and Carteret (Nasdaq family). Firms run
// private WANs between them and shave latency with microwave/laser links,
// which beat fiber two ways — straighter paths and c in air vs ~0.66c in
// glass — at the cost of weather-dependent loss and far less bandwidth.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "net/link.hpp"
#include "sim/time.hpp"

namespace tsn::wan {

enum class Colo : std::uint8_t { kMahwah = 0, kSecaucus = 1, kCarteret = 2 };
inline constexpr std::size_t kColoCount = 3;

[[nodiscard]] constexpr std::string_view to_string(Colo colo) noexcept {
  switch (colo) {
    case Colo::kMahwah:
      return "Mahwah";
    case Colo::kSecaucus:
      return "Secaucus";
    case Colo::kCarteret:
      return "Carteret";
  }
  return "?";
}

enum class LinkTech : std::uint8_t { kFiber, kMicrowave };

struct WanTechParams {
  // Fraction of c the signal propagates at (fiber ~0.66, air ~0.9997).
  double speed_fraction_of_c = 0.66;
  // Route length relative to the geodesic (fiber follows rights-of-way).
  double path_inflation = 1.40;
  std::uint64_t rate_bps = 10'000'000'000;
  // Loss probability under adverse weather (microwave rain fade).
  double weather_loss = 0.0;
};

[[nodiscard]] WanTechParams params_for(LinkTech tech) noexcept;

// Straight-line distance between colos, meters.
[[nodiscard]] double geodesic_meters(Colo a, Colo b) noexcept;

// One-way propagation delay for a technology between two colos.
[[nodiscard]] sim::Duration propagation_delay(Colo a, Colo b, LinkTech tech) noexcept;

// Builds a LinkConfig for the WAN hop. When `raining` is true, microwave
// links suffer their weather loss probability; fiber is unaffected.
[[nodiscard]] net::LinkConfig wan_link_config(Colo a, Colo b, LinkTech tech,
                                              bool raining = false) noexcept;

}  // namespace tsn::wan
