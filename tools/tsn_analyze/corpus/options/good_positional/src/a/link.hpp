#pragma once
namespace demo::a {
struct CableConfig {
  long rate_bps = 10;
  long delay_ns = 50;
  double loss = 0.0;
};
struct PortConfig {
  int lanes = 1;
  CableConfig cable{25, 30, 0.0};
};
}  // namespace demo::a
