#include "a/shared.hpp"
int main() { return demo::a::served(); }
