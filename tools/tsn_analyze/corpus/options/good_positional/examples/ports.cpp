#include "a/link.hpp"
int main() {
  demo::a::PortConfig port;
  port.cable = demo::a::CableConfig{100, 5};
  const demo::a::PortConfig quad{4};
  return port.cable.loss == 0.0 && quad.lanes == 4 ? 0 : 1;
}
