#pragma once
namespace demo::a {
struct WidgetConfig {
  int width = 3;
  // Nothing anywhere sets this one; it is a constant in disguise.
  int depth = 4;  // lint-expect: unset-option
};
[[nodiscard]] int area(const WidgetConfig& config);
}  // namespace demo::a
