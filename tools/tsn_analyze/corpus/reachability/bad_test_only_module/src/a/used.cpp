#include "a/used.hpp"
namespace demo::a {
int used() { return 1; }
}  // namespace demo::a
