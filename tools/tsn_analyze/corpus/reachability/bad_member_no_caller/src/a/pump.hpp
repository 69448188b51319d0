#pragma once
namespace demo::a {
class Pump {
 public:
  void run();
  // Nothing calls it in any tree, tests included.
  [[nodiscard]] int halted() const { return halted_; }  // lint-expect: unreached-member

 private:
  int halted_ = 0;
};
}  // namespace demo::a
