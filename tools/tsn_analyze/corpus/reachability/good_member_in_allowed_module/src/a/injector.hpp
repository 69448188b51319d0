// tsn-lint: allow(unreached-module) the failure drills in tests/ are its only users
#pragma once
namespace demo::a {
// Members of a kept module are out of scope: its allow already says tests
// are its users.
class Injector {
 public:
  void flap(int link);
  [[nodiscard]] int log_size() const;
};
}  // namespace demo::a
