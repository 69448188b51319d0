#pragma once
namespace demo::a {
int used();
}  // namespace demo::a
