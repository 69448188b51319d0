#include "a/book.hpp"
int main() {
  demo::a::Book book;
  return book.depth_at(100);
}
