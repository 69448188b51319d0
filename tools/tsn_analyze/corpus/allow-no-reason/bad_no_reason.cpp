#include <cstring>

namespace demo {

// Every family: an allow() must say on its own line why the finding is
// safe. This one still suppresses raw-memcpy, but the reason is missing.
void copy(unsigned char* dst, const unsigned char* src, unsigned n) {
  std::memcpy(dst, src, n);  /* lint-expect: allow-no-reason */ // tsn-lint: allow(raw-memcpy)
}

// A reason on the line above does not count: it drifts from the allow().
void copy_again(unsigned char* dst, const unsigned char* src, unsigned n) {
  // Bounds proven by the caller.
  std::memcpy(dst, src, n);  /* lint-expect: allow-no-reason */ // tsn-lint: allow(raw-memcpy)
}

}  // namespace demo
