#pragma once
namespace demo::a {
struct GatewayConfig {
  int retries = 3;
  unsigned short listen_port = 35000;  // tsn-lint: allow(unset-option) deployment port
  // A trailing allow covers its own line only, not the field after it.
  double backoff_multiplier = 2.0;
  long session_token = 0xca50;  // tsn-lint: allow(unset-option) a credential
  int spare_knob = 1;  // lint-expect: unset-option
};
}  // namespace demo::a
