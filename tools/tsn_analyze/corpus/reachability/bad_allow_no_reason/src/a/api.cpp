#include "a/api.hpp"
namespace demo::a {
int served() { return 1; }
int spare() { return 2; }
}  // namespace demo::a
