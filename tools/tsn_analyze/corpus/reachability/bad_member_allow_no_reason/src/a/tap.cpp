#include "a/tap.hpp"
namespace demo::a {
void Tap::record(int) {}
void Tap::set_record_limit(int) {}
}  // namespace demo::a
