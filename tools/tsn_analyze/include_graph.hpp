// Include-graph construction and layering enforcement.
//
// Quoted includes (`#include "module/file.hpp"`) are project includes rooted
// at src/; angle includes are system headers and are ignored. The graph is
// checked three ways:
//
//   include-missing   a quoted include that does not resolve to a file under
//                     the root (typo, deleted header, or a system header
//                     quoted by mistake).
//   include-cycle     a cycle in the file-level include graph (self-include
//                     is the length-1 case). Headers are include-guarded so
//                     cycles "work" until they suddenly don't; they are
//                     always a layering smell.
//   layer-violation / a module may include only modules in the transitive
//   unknown-module    closure of its declared dependencies. The layer table
//                     mirrors src/CMakeLists.txt target_link_libraries and
//                     is validated acyclic on load; a directory not in the
//                     table fails the scan until it is assigned a layer.
//
// File contents are supplied by a provider callback so unit tests can run
// the builder over in-memory trees.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace tsn::analyze {

struct IncludeEdge {
  std::string to;    // root-relative target path
  int line = 0;      // line of the #include
  bool resolved = false;
};

struct IncludeGraph {
  // Root-relative path -> outgoing edges, sorted by path for determinism.
  std::map<std::string, std::vector<IncludeEdge>> edges;
};

// The layer table: module -> modules it may depend on directly (transitive
// closure is applied when checking). `file_overrides` reassigns individual
// files to a different (pseudo-)module — used to put core/check.hpp, the
// dependency-free assert header everything includes, in the base layer while
// the rest of core/ sits on top of the stack as the analysis layer.
struct LayerConfig {
  std::map<std::string, std::set<std::string>> deps;
  std::map<std::string, std::string> file_overrides;  // rel path -> module

  // Module of a root-relative file path, after overrides.
  [[nodiscard]] std::string module_for(const std::string& rel_path) const;
  // Transitive closure of `deps` for one module (excluding itself).
  [[nodiscard]] std::set<std::string> closure(const std::string& module) const;
  // Empty string when the declared dependency DAG is acyclic, else a
  // human-readable description of one cycle.
  [[nodiscard]] std::string validate() const;
};

// The repo's layer table (kept in lockstep with src/CMakeLists.txt).
const LayerConfig& default_layer_config();

// Reads lines for a root-relative path; returns false when the file does not
// exist. The filesystem provider is the production implementation.
using FileProvider =
    std::function<bool(const std::string& rel_path, std::vector<std::string>& lines)>;

// The quoted includes of one file, in line order, all unresolved. Angle
// includes and directives inside comments are skipped.
std::vector<IncludeEdge> quoted_includes(const std::vector<std::string>& lines);

// Builds the include graph for `files` (root-relative paths). Quoted
// includes that resolve to a path in `known` get resolved edges; unresolved
// quoted includes keep resolved=false (reported by check_includes). Angle
// includes are ignored.
IncludeGraph build_include_graph(const std::vector<std::string>& files,
                                 const FileProvider& provider);

// Emits include-missing and include-cycle findings. File names in findings
// are prefixed with `display_prefix` (the scan root) for clickable paths.
void check_includes(const IncludeGraph& graph, const std::string& display_prefix, Sink& sink);

// Emits layer-violation / unknown-module findings against `config`.
void check_layers(const IncludeGraph& graph, const LayerConfig& config,
                  const std::string& display_prefix, Sink& sink);

}  // namespace tsn::analyze
