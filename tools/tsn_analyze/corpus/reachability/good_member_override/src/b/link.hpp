#pragma once
#include "a/device.hpp"
namespace demo::b {
class Link final : public a::Device {
 protected:
  // Reached through Device::deliver; nothing calls it by name on a Link.
  void receive(int frame) override;
};
}  // namespace demo::b
