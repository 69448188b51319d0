#include "a/tap.hpp"
int main() {
  demo::a::Tap tap;
  tap.record(1);
}
