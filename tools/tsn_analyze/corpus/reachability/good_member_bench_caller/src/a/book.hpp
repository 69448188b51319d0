#pragma once
namespace demo::a {
class Book {
 public:
  [[nodiscard]] int depth() const;
  [[nodiscard]] static int capacity();
  void clear();
};
}  // namespace demo::a
