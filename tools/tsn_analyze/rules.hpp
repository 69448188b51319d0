// Per-family scan entry points. Each takes the file's display name (used in
// findings), its raw lines, and the shared Sink. The determinism scanner
// additionally takes the set of identifiers known to be unordered containers
// in the file's module (harvested across the module first, so a member
// declared in a header is recognised when iterated in the .cpp).
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace tsn::analyze {

// Wire safety: unchecked-reader, raw-memcpy, raw-cast, unchecked-length-index.
void scan_wire(const std::string& file, const std::vector<std::string>& raw, Sink& sink);

// Returns identifiers declared in `raw` as std::unordered_map/std::unordered_set
// (members or locals; multi-line declarations supported).
std::set<std::string> harvest_unordered_names(const std::vector<std::string>& raw);

// Determinism: wall-clock, unseeded-random, unordered-iter, pointer-identity.
// `rel_path` decides the sim/random exemption for unseeded-random.
void scan_determinism(const std::string& file, const std::string& rel_path,
                      const std::vector<std::string>& raw,
                      const std::set<std::string>& unordered_names, Sink& sink);

// Hot-path allocation discipline inside `// tsn-lint: hotpath` regions.
void scan_hotpath(const std::string& file, const std::vector<std::string>& raw, Sink& sink);

// Every family: an allow() must give its reason on its own line
// (`// tsn-lint: allow(rule) why this is safe`); one without is an
// allow-no-reason finding.
void scan_allow_reasons(const std::string& file, const std::vector<std::string>& raw,
                        Sink& sink);

}  // namespace tsn::analyze
