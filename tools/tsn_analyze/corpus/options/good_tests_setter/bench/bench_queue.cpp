#include "a/queue.hpp"
int main() {
  demo::a::QueueConfig config;
  config.capacity = 128;
  return config.high_watermark > 0 ? 0 : 1;
}
