#pragma once
#include <vector>
namespace demo::a {
class Nic {
 public:
  void receive(int frame) {
    ++rx_frames_;
    seen_.push_back(frame);
  }
  // Tests read state through plain observers.
  [[nodiscard]] int rx_frames() const noexcept { return rx_frames_; }
  [[nodiscard]] std::size_t seen() const { return seen_.size(); }

 private:
  int rx_frames_ = 0;
  std::vector<int> seen_;
};
}  // namespace demo::a
