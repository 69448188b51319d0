#include "a/engine.hpp"
namespace demo::a {
template <typename T>
bool Engine::fits() {
  return sizeof(T) <= 8;
}
int Engine::run() { return fits<int>() ? step() : 0; }
int Engine::step() { return 1; }
}  // namespace demo::a
