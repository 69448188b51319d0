#include "a/venue.hpp"
int main() {
  demo::a::VenueConfig config;
  config.units = 4;
  return config.order_port > 0 ? 0 : 1;
}
