#include "a/api.hpp"
namespace demo::a {
int served() { return 1; }
int spare(int x) { return x > 0 ? spare(x - 1) : 0; }
}  // namespace demo::a
