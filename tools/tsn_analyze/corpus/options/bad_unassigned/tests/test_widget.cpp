#include "a/widget.hpp"
int main() {
  const demo::a::WidgetConfig config;
  return config.depth == 4 ? 0 : 1;
}
