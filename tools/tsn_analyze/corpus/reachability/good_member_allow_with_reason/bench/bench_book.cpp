#include "a/book.hpp"
int main() {
  demo::a::Book book;
  book.add(1);
}
