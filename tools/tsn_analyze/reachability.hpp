// Reachability: nothing in src/ without a user outside tests/.
//
//   unreached-module  a src/ header, with its paired .cpp, that no file
//                     under bench/, examples/, perfbench/ or tools/ reaches
//                     through quoted includes. Reach is transitive, and a
//                     reached header reaches its paired .cpp. tests/ is
//                     never a root, nor is tools/tsn_analyze/corpus/.
//   unreached-symbol  a namespace-scope free function or class, declared in
//                     a reached src/ header, that no reached file names
//                     outside the symbol's own declarations and definitions.
//                     A use inside the module's own .cpp counts. A class is
//                     in scope when it is declared with `class` or has a
//                     user-declared constructor or a base class; a plain
//                     data `struct` (stats, configs, results) is not,
//                     because reached functions return it.
//   unreached-member  a member function of a class or struct declared in a
//                     reached header that no reached non-test file calls:
//                     through `.f(`, `->f(`, `Class::f` or `&Class::f` from
//                     any of them, or unqualified `f(` from the class's own
//                     header or .cpp. Reached non-test files are the
//                     reached src/ files and the roots. Out of scope:
//                     constructors, destructors, operators, friends,
//                     defaulted or deleted functions, an override of a
//                     virtual that is called, and members of classes in a
//                     module kept by allow(unreached-module). Two findings:
//                     (a) nothing calls it in any tree, tests/ included;
//                     (b) only tests/ call it and it is not a plain
//                     observer (const, defined in the class body, its body
//                     one `return m;` or `return m.f().g();` over a data
//                     member m).
//
// The roots are the directories beside the scan root (the repo's top
// level when the root is src/). Names are matched as identifiers, not
// resolved, so two symbols that share a name count each other's uses: a
// call to `x.f()` reaches every class's `f`.
//
// Suppressions carry a reason: `// tsn-lint: allow(unreached-module) why`
// in the header's leading comment block, `allow(unreached-symbol) why` or
// `allow(unreached-member) why` on (or alone above) the declaration. An
// allowed module counts as reached, so what it uses is not reported
// again.
#pragma once

#include <array>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer.hpp"
#include "include_graph.hpp"

namespace tsn::analyze {

inline constexpr std::array<std::string_view, 4> kReachRootDirs = {"bench", "examples",
                                                                   "perfbench", "tools"};

// The directory beside the scan root whose files are tests: never roots,
// but read by unreached-member to tell a test-only member from one that
// nothing calls.
inline constexpr std::string_view kTestDir = "tests";

// True when `tree_path` (relative to the directory holding the scan root,
// e.g. "bench/bench_fig2a_growth.cpp") is a reachability root.
bool is_reach_root(std::string_view tree_path);

// True when the header's leading comment block keeps its module with
// `allow(unreached-module)`.
bool module_kept_by_allow(const CleanSource& header);

// The scan-root-relative paths of every file under `src_dir` that a root
// reaches. `tree_files` and the provider's keys are relative to the
// directory holding `src_dir`; files outside it and the roots are ignored.
std::set<std::string> reached_files(const std::vector<std::string>& tree_files,
                                    const std::string& src_dir, const FileProvider& provider);

// Emits unreached-module, unreached-symbol and unreached-member findings
// for the files under `src_dir`, displayed as
// `display_prefix/<path under src_dir>`. Returns the number of member
// functions scanned.
std::size_t check_reachability(const std::vector<std::string>& tree_files,
                               const std::string& src_dir, const FileProvider& provider,
                               const std::string& display_prefix, Sink& sink);

}  // namespace tsn::analyze
