// tsn-lint: allow(unreached-module) the A/B drills in tests/ are its only users
#pragma once
namespace demo::a {
// The module's allow already says tests are its users, so its knobs are
// out of scope.
struct ArbiterConfig {
  int window = 64;
};
}  // namespace demo::a
