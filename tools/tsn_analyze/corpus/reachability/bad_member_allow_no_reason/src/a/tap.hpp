#pragma once
namespace demo::a {
class Tap {
 public:
  void record(int frame);
  // The allow() still suppresses, but says nothing about why the member stays.
  /* lint-expect: allow-no-reason */ // tsn-lint: allow(unreached-member)
  void set_record_limit(int limit);
};
}  // namespace demo::a
