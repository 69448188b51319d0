#pragma once
namespace demo::a {
class Engine {
 public:
  int run();

 private:
  int step();
  template <typename T>
  static bool fits();
};
}  // namespace demo::a
