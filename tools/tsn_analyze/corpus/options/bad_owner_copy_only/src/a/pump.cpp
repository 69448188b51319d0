#include "a/pump.hpp"
#include <algorithm>
namespace demo::a {
Pump::Pump(PumpConfig config) : config_(config) {
  // The owner clamping its own copy is not a caller turning the knob.
  config_.interval_ticks = std::max(1, config_.interval_ticks);
  this->config_.interval_ticks += 0;
}
}  // namespace demo::a
