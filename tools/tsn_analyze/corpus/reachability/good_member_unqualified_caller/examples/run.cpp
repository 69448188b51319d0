#include "a/engine.hpp"
int main() {
  demo::a::Engine engine;
  return engine.run();
}
