// tsn_analyze — multi-pass static analysis for the trading-system simulator.
//
// Grown from the original tsn_lint wire-safety checker, this tool now scans
// all of src/ with six rule families plus a suppression check (see
// DESIGN.md "Static analysis"):
//
//   wire safety      unchecked-reader, raw-memcpy / raw-cast,
//                    unchecked-length-index (scoped to src/proto, src/net,
//                    src/mcast — the subsystems that touch frame bytes)
//   determinism      wall-clock, unseeded-random, unordered-iter,
//                    pointer-identity, cross-domain-sched (all of src/:
//                    byte-identical replay means all time flows from the
//                    sim clock, all randomness from sim::random, no
//                    observable ordering depends on hash-table iteration or
//                    pointer values, and no shard schedules onto another's
//                    queue)
//   hot-path         hotpath-alloc inside regions marked
//                    `// tsn-lint: hotpath` (no new/delete/malloc,
//                    make_shared/make_unique, push_back without a reserve,
//                    std::string construction, or local container builds)
//   layering         include-cycle, layer-violation, include-missing,
//                    unknown-module over the `#include` graph of src/
//   reachability     unreached-module, unreached-symbol, unreached-member:
//                    every src/ module, public symbol and member function
//                    has a user under bench/, examples/, perfbench/ or
//                    tools/ (tests/ do not count)
//   options          unset-option: every *Config field has a setter under
//                    src/, bench/, examples/, perfbench/ or tools/
//   suppression      allow-no-reason: every allow() gives its reason
//
// Shared infrastructure: a line-oriented scanner over comment-stripped
// source. It tracks brace depth, strings and comments, not templates or
// macros — it is a convention linter, not a compiler plugin. Suppressions
// are `// tsn-lint: allow(<rule>) <reason>` on the offending line, or alone
// on the line above it; audited legacy findings can also live in a committed
// baseline file.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace tsn::analyze {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// Collects findings and counts per-rule inline `allow()` suppressions, so
// the end-of-run summary can show audited exceptions next to live findings.
struct Sink {
  std::vector<Finding> findings;
  std::map<std::string, int> suppressed;  // rule -> allow() hits

  void emit(Finding f) { findings.push_back(std::move(f)); }
  void suppress(const std::string& rule) { ++suppressed[rule]; }
};

// A file's lines with comments blanked out (string and char literals
// respected), plus per-line markers harvested from the comments before they
// were removed: `tsn-lint: allow(rule)` suppressions and `tsn-lint: hotpath`
// region markers.
struct CleanSource {
  std::vector<std::string> lines;             // code only, comments blanked
  std::vector<std::set<std::string>> allows;  // per line, suppressed rules
  // Per line, the rules of allow()s with no reason text after them. They
  // still suppress; scan_allow_reasons reports them.
  std::vector<std::vector<std::string>> reasonless_allows;
  std::vector<bool> hotpath_marks;            // per line, hotpath marker seen
};

CleanSource strip_comments(const std::vector<std::string>& raw);

// True when an allow(rule) sits on 1-based `line`, or alone on the line
// above it.
bool allowed_at(const CleanSource& src, int line, const std::string& rule);

// --- small text helpers ----------------------------------------------------

bool is_ident_char(char c);

// Finds `needle` in `line` at an identifier boundary on the left.
std::size_t find_token(const std::string& line, std::string_view needle, std::size_t from = 0);

// Finds `needle` with identifier boundaries on both sides.
std::size_t find_word(const std::string& line, std::string_view needle, std::size_t from = 0);

bool starts_with_keyword(const std::string& line);

std::vector<std::string> read_lines(const std::filesystem::path& path);
std::vector<std::string> split_lines(std::string_view text);

// True for the C++ source/header extensions the analyzer scans.
bool scannable(const std::filesystem::path& p);

// True for a header path (.hpp or .h).
bool is_header(const std::string& path);

// Path relative to `root` with '/' separators, or the path unchanged when it
// is not under `root`. Used to key findings and baseline entries stably.
std::string relative_path(const std::filesystem::path& p, const std::filesystem::path& root);

// First path component of a root-relative path ("net/wire.hpp" -> "net").
std::string module_of(std::string_view rel_path);

}  // namespace tsn::analyze
