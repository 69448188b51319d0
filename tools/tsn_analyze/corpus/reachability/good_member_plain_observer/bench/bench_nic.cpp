#include "a/nic.hpp"
int main() {
  demo::a::Nic nic;
  nic.receive(1);
}
