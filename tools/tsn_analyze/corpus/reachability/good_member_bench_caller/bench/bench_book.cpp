#include "a/book.hpp"
#include <functional>
int main() {
  demo::a::Book book;
  demo::a::Book* p = &book;
  const std::function<void(demo::a::Book&)> clear = &demo::a::Book::clear;
  clear(book);
  return p->depth() + demo::a::Book::capacity();
}
