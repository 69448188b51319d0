#include "a/shapes.hpp"
namespace demo::a {
Pentagon::Pentagon(int scale) : scale_(scale) {}
int Pentagon::sides() const { return 5 + scale_ * 0; }
}  // namespace demo::a
