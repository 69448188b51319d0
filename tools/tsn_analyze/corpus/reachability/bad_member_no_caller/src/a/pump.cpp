#include "a/pump.hpp"
namespace demo::a {
void Pump::run() {}
}  // namespace demo::a
