// The benchmark's three workloads. Each builds its rig from the simulator's
// public API, repeats the timed span (or, traced, the traced and untraced
// spans) for the option's wall budget, checks the simulated outputs, and
// returns its metrics: end-to-end rows untraced, per-layer rows traced.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_leafspine_feed(const Options& options);
Result run_session_storm(const Options& options);
Result run_sharded_ring(const Options& options);

}  // namespace perfbench
