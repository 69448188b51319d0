#include "a/switch.hpp"
namespace demo::a {
void Switch::patch(int, int) {}
void Switch::unpatch(int, int) {}
}  // namespace demo::a
