#include <chrono>

namespace demo {

// An allow at the end of a line covers that line only, not the next one.
long two_stamps() {
  const auto a = std::chrono::system_clock::now();  // tsn-lint: allow(wall-clock) log banner
  const auto b = std::chrono::system_clock::now();  // lint-expect: wall-clock
  return (b - a).count();
}

// An allow alone on the line above covers the line below it.
long one_stamp() {
  // tsn-lint: allow(wall-clock) log banner
  return std::chrono::system_clock::now().time_since_epoch().count();
}

}  // namespace demo
