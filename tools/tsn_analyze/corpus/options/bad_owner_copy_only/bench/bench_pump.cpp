#include "a/pump.hpp"
int main() {
  demo::a::PumpConfig config;
  config.rate = 20;
  return demo::a::Pump{config}.period() > 0 ? 0 : 1;
}
