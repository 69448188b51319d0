// perfbench: wall-clock benchmark of the simulator.
//
//   perfbench --workload leafspine_feed|session_storm|sharded_ring
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Untraced, a run repeats the workload's timed span for S wall seconds and
// reports the end-to-end metrics; traced, it reports the per-layer metrics.
// Human-readable lines come first; the last line is "RESULT <json>". The
// exit code is 0 only when every output check passed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  std::uint64_t default_seed;  // the seed the matching repo bench uses
  Result (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"leafspine_feed", 17, run_leafspine_feed},
    {"session_storm", 7, run_session_storm},
    {"sharded_ring", 5, run_sharded_ring},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload leafspine_feed|session_storm|sharded_ring "
               "[--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

void print_json(const Result& result) {
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const Workload* workload = nullptr;
  bool seed_given = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (workload == nullptr) return usage();
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      seed_given = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view{value} == "1";
    } else {
      return usage();
    }
  }
  if (workload == nullptr || argc % 2 == 0) return usage();
  if (!seed_given) options.seed = workload->default_seed;
  // Pin glibc's mmap threshold. Left dynamic, it rises after the first
  // large free, and later repetitions then reuse warm heap pages that a
  // fresh process never has; pinned, every repetition faults its memory in
  // as a fresh run does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::printf("perfbench %s seed %llu, %.0f s, %s\n", workload->name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  const Result result = workload->run(options);

  for (const Metric& m : result.metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (options.trace) {
    std::printf("per-event budgets:\n");
    for (const Metric& m : result.metrics) {
      if (m.name.find(".ns_per_") != std::string::npos) print_budget_row(m);
    }
  }
  std::printf("attempted %llu, failed %llu\n", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& failure : result.failed_checks) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  print_json(result);
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
