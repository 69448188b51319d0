#include "a/kept.hpp"
int main() { return demo::a::kept() + demo::a::decode_untrusted(); }
