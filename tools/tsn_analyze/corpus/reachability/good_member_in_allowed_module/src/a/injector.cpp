#include "a/injector.hpp"
namespace demo::a {
void Injector::flap(int) {}
int Injector::log_size() const { return 0; }
}  // namespace demo::a
