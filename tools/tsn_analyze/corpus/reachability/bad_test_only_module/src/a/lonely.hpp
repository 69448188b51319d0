#pragma once  // lint-expect: unreached-module
// Only a test includes this module, so no experiment runs it.
namespace demo::a {
int lonely();
}  // namespace demo::a
