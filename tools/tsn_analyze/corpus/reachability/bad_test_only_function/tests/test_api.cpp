#include "a/api.hpp"
int main() { return demo::a::spare(3) + demo::a::served(); }
