#pragma once
namespace demo::a {
struct VenueConfig {
  int units = 2;
  // tsn-lint: allow(unset-option) a deployment's port: addresses and ports stay settable
  unsigned short order_port = 34000;
  long login_token = 0xca50;  // tsn-lint: allow(unset-option) a credential stays settable
};
}  // namespace demo::a
