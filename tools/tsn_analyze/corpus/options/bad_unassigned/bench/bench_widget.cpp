#include "a/widget.hpp"
int main() {
  demo::a::WidgetConfig config;
  config.width = 5;
  // Reading a field is not setting it.
  return demo::a::area(config) == config.depth ? 0 : 1;
}
