#include "a/tap.hpp"
int main() {
  demo::a::Tap tap;
  tap.set_record_limit(10);
}
