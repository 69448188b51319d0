#pragma once
// Reached only through designs.cpp: a reached header reaches its .cpp,
// and the .cpp's includes are reached in turn.
namespace demo::b {
[[nodiscard]] inline int base_hops() { return 2; }
}  // namespace demo::b
