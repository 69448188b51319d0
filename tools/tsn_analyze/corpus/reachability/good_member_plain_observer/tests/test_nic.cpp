#include "a/nic.hpp"
int main() {
  demo::a::Nic nic;
  nic.receive(1);
  return nic.rx_frames() + static_cast<int>(nic.seen());
}
