#include "a/kept.hpp"
namespace demo::a {
int kept() { return shared_only_by_kept(); }
}  // namespace demo::a
