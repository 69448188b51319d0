#pragma once
namespace demo::a {
struct ListenerConfig {
  int backlog = 16;
  // The allow() still suppresses, but says nothing about why the knob stays.
  /* lint-expect: allow-no-reason */ // tsn-lint: allow(unset-option)
  unsigned short port = 34000;
};
}  // namespace demo::a
