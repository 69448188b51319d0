#include "a/pump.hpp"
int main() {
  demo::a::Pump pump;
  pump.run();
}
