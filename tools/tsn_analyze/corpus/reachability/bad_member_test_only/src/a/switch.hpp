#pragma once
namespace demo::a {
class Switch {
 public:
  void patch(int in, int out);
  // Only a test unpatches: a feature nothing in the system runs.
  void unpatch(int in, int out);  // lint-expect: unreached-member
};
}  // namespace demo::a
