#include "a/shapes.hpp"
int main() {
  const demo::a::Square square;
  return square.sides();
}
