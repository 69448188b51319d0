#include "a/injector.hpp"
int main() {
  demo::a::Injector injector;
  injector.flap(1);
  return injector.log_size();
}
