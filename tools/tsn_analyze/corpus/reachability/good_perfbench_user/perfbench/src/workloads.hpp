#pragma once
namespace demo::perf {
int run_engine();
}  // namespace demo::perf
