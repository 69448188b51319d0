#pragma once
namespace demo::a {
[[nodiscard]] int served();
// The allow() still suppresses, but says nothing about why the code stays.
/* lint-expect: allow-no-reason */ // tsn-lint: allow(unreached-symbol)
[[nodiscard]] int spare();
}  // namespace demo::a
