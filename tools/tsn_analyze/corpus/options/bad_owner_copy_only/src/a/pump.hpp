#pragma once
namespace demo::a {
struct PumpConfig {
  int rate = 10;
  int interval_ticks = 8;  // lint-expect: unset-option
};
class Pump {
 public:
  explicit Pump(PumpConfig config);
  [[nodiscard]] int period() const { return config_.rate * config_.interval_ticks; }

 private:
  PumpConfig config_;
};
}  // namespace demo::a
