#pragma once
#include <vector>
namespace demo::a {
struct QueueConfig {
  int capacity = 64;
  // Only a test sets these; a test that sets a second value exercises it.
  int high_watermark = 48;
  std::vector<int> priorities;
  struct Limits {
    int burst = 4;
  } limits;
};
}  // namespace demo::a
