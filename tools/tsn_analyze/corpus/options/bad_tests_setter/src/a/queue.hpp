#pragma once
#include <vector>
namespace demo::a {
struct QueueConfig {
  int capacity = 64;
  // Only a test sets these, so they are constants the test can read.
  int high_watermark = 48;  // lint-expect: unset-option
  std::vector<int> priorities;  // lint-expect: unset-option
  struct Limits {
    int burst = 4;
  } limits;
};
}  // namespace demo::a
