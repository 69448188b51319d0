#include "a/lonely.hpp"
#include "a/used.hpp"
int main() { return demo::a::lonely() + demo::a::used(); }
