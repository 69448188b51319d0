#pragma once
namespace demo::a {
class Engine {
 public:
  explicit Engine(int lanes) : lanes_(lanes) {}
  [[nodiscard]] int lanes() const { return lanes_; }

 private:
  int lanes_;
};
}  // namespace demo::a
