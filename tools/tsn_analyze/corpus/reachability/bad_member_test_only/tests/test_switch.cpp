#include "a/switch.hpp"
int main() {
  demo::a::Switch sw;
  sw.patch(0, 1);
  sw.unpatch(0, 1);
}
