#pragma once
namespace demo::a {
[[nodiscard]] int served();
// Only the test calls this one; the module's own definition is not a use.
[[nodiscard]] int spare(int x);  // lint-expect: unreached-symbol
}  // namespace demo::a
