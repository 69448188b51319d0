#include "a/engine.hpp"
int main() { return demo::a::Engine{1}.lanes(); }
