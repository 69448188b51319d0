#include "a/widget.hpp"
namespace demo::a {
int area(const WidgetConfig& config) { return config.width * config.depth; }
}  // namespace demo::a
