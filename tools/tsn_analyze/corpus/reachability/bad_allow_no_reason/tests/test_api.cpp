#include "a/api.hpp"
int main() { return demo::a::spare(); }
