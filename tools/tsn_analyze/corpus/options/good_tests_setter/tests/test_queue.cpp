#include "a/queue.hpp"
int main() {
  demo::a::QueueConfig config;
  config.high_watermark = 8;
  config.priorities.push_back(1);
  config.limits.burst = 2;
  return config.capacity > 0 ? 0 : 1;
}
