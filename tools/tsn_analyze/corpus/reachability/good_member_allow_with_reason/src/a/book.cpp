#include "a/book.hpp"
namespace demo::a {
void Book::add(int) {}
int Book::depth_at(int) const { return 0; }
}  // namespace demo::a
