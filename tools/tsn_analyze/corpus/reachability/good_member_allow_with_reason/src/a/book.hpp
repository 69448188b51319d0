#pragma once
namespace demo::a {
class Book {
 public:
  void add(int quantity);
  // tsn-lint: allow(unreached-member) the differential suite checks it against the reference book
  [[nodiscard]] int depth_at(int price) const;
};
}  // namespace demo::a
