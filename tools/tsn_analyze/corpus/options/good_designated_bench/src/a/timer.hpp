#pragma once
namespace demo::a {
struct TimerConfig {
  long period_ns = 1000;
  long jitter_ns = 0;
  int slots = 8;
};
}  // namespace demo::a
