#include "a/lonely.hpp"
namespace demo::a {
int lonely() { return 2; }
}  // namespace demo::a
