#include "a/arbiter.hpp"
int main() {
  demo::a::ArbiterConfig config;
  config.window = 8;
  return config.window;
}
