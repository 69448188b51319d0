#include "a/used.hpp"
int main() { return demo::a::used(); }
