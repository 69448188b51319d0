#include "wan/metro.hpp"

#include <gtest/gtest.h>

namespace tsn::wan {
namespace {

TEST(Wan, GeodesicsAreSymmetricAndTensOfMiles) {
  // §2: the three colos are tens of miles apart.
  for (Colo a : {Colo::kMahwah, Colo::kSecaucus, Colo::kCarteret}) {
    for (Colo b : {Colo::kMahwah, Colo::kSecaucus, Colo::kCarteret}) {
      EXPECT_EQ(geodesic_meters(a, b), geodesic_meters(b, a));
      if (a != b) {
        EXPECT_GT(geodesic_meters(a, b), 10'000.0);
        EXPECT_LT(geodesic_meters(a, b), 100'000.0);
      } else {
        EXPECT_EQ(geodesic_meters(a, b), 0.0);
      }
    }
  }
}

TEST(Wan, MicrowaveBeatsFiberOnEveryPair) {
  // §2: microwave reduces latency relative to fiber on every metro path.
  for (Colo a : {Colo::kMahwah, Colo::kSecaucus, Colo::kCarteret}) {
    for (Colo b : {Colo::kMahwah, Colo::kSecaucus, Colo::kCarteret}) {
      if (a == b) continue;
      const auto fiber = propagation_delay(a, b, LinkTech::kFiber);
      const auto microwave = propagation_delay(a, b, LinkTech::kMicrowave);
      EXPECT_LT(microwave, fiber);
      // The advantage comes from both straighter paths and faster medium:
      // roughly 25-40% lower latency.
      const double ratio = microwave.nanos() / fiber.nanos();
      EXPECT_GT(ratio, 0.4);
      EXPECT_LT(ratio, 0.75);
    }
  }
}

TEST(Wan, DelaysAreInThePhysicallyPlausibleRange) {
  // Mahwah-Carteret (~35 mi): fiber one-way should be in the hundreds of
  // microseconds, microwave below it.
  const auto fiber = propagation_delay(Colo::kMahwah, Colo::kCarteret, LinkTech::kFiber);
  EXPECT_GT(fiber, sim::micros(std::int64_t{200}));
  EXPECT_LT(fiber, sim::micros(std::int64_t{600}));
  const auto mw = propagation_delay(Colo::kMahwah, Colo::kCarteret, LinkTech::kMicrowave);
  EXPECT_GT(mw, sim::micros(std::int64_t{150}));
  EXPECT_LT(mw, fiber);
}

TEST(Wan, MicrowaveHasLessBandwidthAndRainLoss) {
  // §2: microwave is used despite being less reliable and lower bandwidth.
  const auto fiber = params_for(LinkTech::kFiber);
  const auto microwave = params_for(LinkTech::kMicrowave);
  EXPECT_GT(fiber.rate_bps, microwave.rate_bps * 10);
  EXPECT_EQ(fiber.weather_loss, 0.0);
  EXPECT_GT(microwave.weather_loss, 0.0);
}

TEST(Wan, LinkConfigRainOnlyAffectsMicrowave) {
  const auto fiber_rain = wan_link_config(Colo::kMahwah, Colo::kSecaucus, LinkTech::kFiber, true);
  EXPECT_EQ(fiber_rain.loss_probability, 0.0);
  const auto mw_dry =
      wan_link_config(Colo::kMahwah, Colo::kSecaucus, LinkTech::kMicrowave, false);
  EXPECT_EQ(mw_dry.loss_probability, 0.0);
  const auto mw_rain =
      wan_link_config(Colo::kMahwah, Colo::kSecaucus, LinkTech::kMicrowave, true);
  EXPECT_GT(mw_rain.loss_probability, 0.0);
  EXPECT_EQ(mw_rain.propagation,
            propagation_delay(Colo::kMahwah, Colo::kSecaucus, LinkTech::kMicrowave));
}

TEST(Wan, ColoNames) {
  EXPECT_EQ(to_string(Colo::kMahwah), "Mahwah");
  EXPECT_EQ(to_string(Colo::kSecaucus), "Secaucus");
  EXPECT_EQ(to_string(Colo::kCarteret), "Carteret");
}

}  // namespace
}  // namespace tsn::wan
