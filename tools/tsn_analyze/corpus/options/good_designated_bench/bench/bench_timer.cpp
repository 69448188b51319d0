#include "a/timer.hpp"
int main() {
  const demo::a::TimerConfig config{.period_ns = 500,
                                    .jitter_ns = 20,
                                    .slots{16}};
  return config.slots > 0 ? 0 : 1;
}
