#include "b/link.hpp"
int main() {
  demo::b::Link link;
  link.deliver(1);
}
