#include <cstring>

namespace demo {

void copy(unsigned char* dst, const unsigned char* src, unsigned n) {
  std::memcpy(dst, src, n);  // tsn-lint: allow(raw-memcpy) bounds proven by the caller's pool
}

void copy_block(unsigned char* dst, const unsigned char* src, unsigned n) {
  /* tsn-lint: allow(raw-memcpy) fixed-size slab copy */ std::memcpy(dst, src, n);
}

}  // namespace demo
