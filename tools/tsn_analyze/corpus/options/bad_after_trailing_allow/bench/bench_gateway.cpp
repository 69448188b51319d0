#include "a/gateway.hpp"
int main() {
  demo::a::GatewayConfig config;
  config.retries = 5;
  config.backoff_multiplier = 1.5;
  return config.listen_port + config.session_token + config.spare_knob > 0 ? 0 : 1;
}
