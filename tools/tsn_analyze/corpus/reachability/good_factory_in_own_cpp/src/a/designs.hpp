#pragma once
#include <memory>
#include <vector>
namespace demo::a {
class Design {
 public:
  virtual ~Design() = default;
  [[nodiscard]] virtual int hops() const = 0;
};
// Nothing outside designs.cpp names it: all_designs() builds it.
class FastDesign final : public Design {
 public:
  explicit FastDesign(int hops);
  [[nodiscard]] int hops() const override { return hops_; }

 private:
  int hops_;
};
[[nodiscard]] std::vector<std::unique_ptr<Design>> all_designs();
}  // namespace demo::a
