#include "b/link.hpp"
namespace demo::b {
void Link::receive(int) {}
}  // namespace demo::b
