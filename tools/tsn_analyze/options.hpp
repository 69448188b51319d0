// Options: no configuration knob without a setter.
//
//   unset-option  a data member of a `struct` whose name ends in `Config`,
//                 declared in a header under the scan root, that no file
//                 assigns. The setters are every file under the scan root
//                 and the reachability roots beside it (bench/, examples/,
//                 perfbench/ and tools/, except tools/tsn_analyze/corpus/).
//                 Structs in a module
//                 kept by `allow(unreached-module)` are out of scope: that
//                 module's reason already says tests are its users.
//
// A field counts as assigned when a setter writes it through an instance:
//
//   x.f = v   x.f += v   x.f{v}   x.f.g = v   x.f.push_back(v)   .f = v
//
// (the last is a designated initializer; `->` works like `.`), or when a
// positional aggregate initialization `XConfig{a, b}` or `XConfig x{a, b}`
// covers it. A write whose object chain names `config_` does not count:
// an owner adjusting its own copy is not a caller turning the knob. Nor
// does a test: a knob only a test turns is a constant that test can read.
//
// Names are matched, not resolved, as in unreached-symbol: a write to
// `f` through any object counts for every `*Config::f`. When the rule was
// written, 10 of the 81 never-assigned fields in src/ were hidden this way
// by an assigned field of the same name in another struct.
//
// Suppressions carry a reason: `// tsn-lint: allow(unset-option) why` on
// (or alone above) the field's declaration. Deployment settings (addresses,
// ports, credentials, identities) are the expected allows.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "include_graph.hpp"

namespace tsn::analyze {

// What one file writes: member names, and for each `*Config` struct the
// most fields a positional aggregate initialization of it covers.
struct OptionWrites {
  std::set<std::string> members;
  std::map<std::string, std::size_t> positional;
};

// The writes in one comment-stripped file. `config_structs` names the
// structs whose positional initializations are counted.
OptionWrites harvest_option_writes(const std::vector<std::string>& code,
                                   const std::set<std::string>& config_structs);

// Emits unset-option findings for the `*Config` fields declared in headers
// under `src_dir`, displayed as `display_prefix/<path under src_dir>`.
// Returns the number of fields scanned.
std::size_t check_options(const std::vector<std::string>& tree_files,
                          const std::string& src_dir, const FileProvider& provider,
                          const std::string& display_prefix, Sink& sink);

}  // namespace tsn::analyze
