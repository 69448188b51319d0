#include "workloads.hpp"

#include "a/engine.hpp"
namespace demo::perf {
int run_engine() { return demo::a::Engine{4}.lanes(); }
}  // namespace demo::perf
