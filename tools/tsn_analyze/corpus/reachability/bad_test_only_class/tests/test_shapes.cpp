#include "a/shapes.hpp"
int main() {
  const demo::a::Pentagon pentagon{1};
  return pentagon.sides();
}
