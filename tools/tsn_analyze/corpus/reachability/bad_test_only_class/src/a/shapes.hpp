#pragma once
namespace demo::a {
class Shape {
 public:
  virtual ~Shape() = default;
  [[nodiscard]] virtual int sides() const = 0;
};
class Square final : public Shape {
 public:
  [[nodiscard]] int sides() const override { return 4; }
};
// Only the test builds one; its own members' definitions are not uses.
class Pentagon final : public Shape {  // lint-expect: unreached-symbol
 public:
  explicit Pentagon(int scale);
  Pentagon(const Pentagon&) = delete;
  [[nodiscard]] int sides() const override;

 private:
  int scale_;
};
// Plain data: out of scope, whoever uses it.
struct ShapeStats {
  int built = 0;
};
}  // namespace demo::a
