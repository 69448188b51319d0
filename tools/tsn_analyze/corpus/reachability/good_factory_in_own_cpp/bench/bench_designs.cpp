#include "a/designs.hpp"
int main() {
  int total = 0;
  for (const auto& design : demo::a::all_designs()) total += design->hops();
  return total;
}
