// tsn-lint: allow(unreached-module) the failover drills in tests/ drive it; no bench can yet
#pragma once
#include "a/shared.hpp"
namespace demo::a {
[[nodiscard]] int kept();
}  // namespace demo::a
