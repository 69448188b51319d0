#include "a/listener.hpp"
int main() {
  demo::a::ListenerConfig config;
  config.backlog = 64;
  return config.port > 0 ? 0 : 1;
}
