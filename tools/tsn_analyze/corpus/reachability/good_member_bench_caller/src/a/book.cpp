#include "a/book.hpp"
namespace demo::a {
int Book::depth() const { return 0; }
int Book::capacity() { return 8; }
void Book::clear() {}
}  // namespace demo::a
