#pragma once
namespace demo::a {
class Device {
 public:
  virtual ~Device() = default;
  void deliver(int frame) { receive(frame); }

 protected:
  virtual void receive(int frame) = 0;
};
}  // namespace demo::a
