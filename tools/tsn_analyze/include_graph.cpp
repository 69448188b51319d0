#include "include_graph.hpp"

#include <algorithm>

namespace tsn::analyze {

std::string LayerConfig::module_for(const std::string& rel_path) const {
  if (const auto it = file_overrides.find(rel_path); it != file_overrides.end()) {
    return it->second;
  }
  return module_of(rel_path);
}

std::set<std::string> LayerConfig::closure(const std::string& module) const {
  std::set<std::string> out;
  std::vector<std::string> work{module};
  while (!work.empty()) {
    const std::string m = work.back();
    work.pop_back();
    const auto it = deps.find(m);
    if (it == deps.end()) continue;
    for (const auto& dep : it->second) {
      if (out.insert(dep).second) work.push_back(dep);
    }
  }
  out.erase(module);
  return out;
}

std::string LayerConfig::validate() const {
  // DFS with colors over the declared dependency edges.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  std::string cycle;
  std::function<bool(const std::string&)> visit = [&](const std::string& m) {
    color[m] = 1;
    path.push_back(m);
    if (const auto it = deps.find(m); it != deps.end()) {
      for (const auto& dep : it->second) {
        if (color[dep] == 1) {
          cycle = dep;
          for (auto rit = path.rbegin(); rit != path.rend() && *rit != dep; ++rit) {
            cycle += " <- " + *rit;
          }
          return false;
        }
        if (color[dep] == 0 && !visit(dep)) return false;
      }
    }
    color[m] = 2;
    path.pop_back();
    return true;
  };
  for (const auto& [m, _] : deps) {
    if (color[m] == 0 && !visit(m)) return "layer table cycle: " + cycle;
  }
  return {};
}

const LayerConfig& default_layer_config() {
  // Mirrors src/CMakeLists.txt target_link_libraries, bottom-up. core is
  // split: core/check.hpp (the dependency-free assert vocabulary everything
  // uses) is the base layer, while the rest of core/ — the paper's analysis
  // models — sits on top of the simulation stack.
  static const LayerConfig config = [] {
    LayerConfig c;
    c.deps["core.base"] = {};
    c.deps["sim"] = {"core.base"};
    c.deps["telemetry"] = {"sim"};
    c.deps["net"] = {"sim", "telemetry"};
    c.deps["mcast"] = {"net"};
    c.deps["l1s"] = {"net"};
    c.deps["proto"] = {"net"};
    c.deps["l2"] = {"mcast"};
    c.deps["fault"] = {"l2"};
    c.deps["wan"] = {"net"};
    c.deps["capture"] = {"net", "book"};
    c.deps["cluster"] = {"sim"};
    c.deps["book"] = {"proto"};
    c.deps["feed"] = {"proto"};
    c.deps["exchange"] = {"book"};
    c.deps["trading"] = {"proto", "mcast", "book"};
    c.deps["topo"] = {"l2", "l1s"};
    c.deps["core"] = {"l2", "net"};
    c.deps["deploy"] = {"exchange", "trading", "topo", "wan"};
    c.file_overrides["core/check.hpp"] = "core.base";
    return c;
  }();
  return config;
}

std::vector<IncludeEdge> quoted_includes(const std::vector<std::string>& lines) {
  std::vector<IncludeEdge> out;
  const CleanSource src = strip_comments(lines);
  for (std::size_t li = 0; li < src.lines.size(); ++li) {
    // Directive detection on the comment-stripped line (so `#include` in a
    // comment is ignored), but the target path is read from the raw line —
    // strip_comments blanks string-literal contents, quoted paths included.
    std::size_t i = 0;
    const std::string& stripped = src.lines[li];
    while (i < stripped.size() && std::isspace(static_cast<unsigned char>(stripped[i])) != 0) {
      ++i;
    }
    if (stripped.compare(i, 8, "#include") != 0) continue;
    const std::string& line = lines[li];
    const std::size_t open = line.find_first_of("\"<", i + 8);
    if (open == std::string::npos || line[open] == '<') continue;  // angle: system
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    IncludeEdge edge;
    edge.to = line.substr(open + 1, close - open - 1);
    edge.line = static_cast<int>(li) + 1;
    out.push_back(std::move(edge));
  }
  return out;
}

IncludeGraph build_include_graph(const std::vector<std::string>& files,
                                 const FileProvider& provider) {
  IncludeGraph graph;
  std::set<std::string> known(files.begin(), files.end());
  for (const auto& file : files) {
    std::vector<std::string> lines;
    if (!provider(file, lines)) continue;
    auto& edges = graph.edges[file];  // every scanned file gets a node
    edges = quoted_includes(lines);
    for (auto& edge : edges) edge.resolved = known.count(edge.to) > 0;
  }
  return graph;
}

namespace {

std::string display(const std::string& prefix, const std::string& rel) {
  return prefix.empty() ? rel : prefix + "/" + rel;
}

}  // namespace

void check_includes(const IncludeGraph& graph, const std::string& display_prefix, Sink& sink) {
  // Missing quoted includes.
  for (const auto& [file, edges] : graph.edges) {
    for (const auto& edge : edges) {
      if (!edge.resolved) {
        sink.emit(Finding{display(display_prefix, file), edge.line, "include-missing",
                          "quoted include \"" + edge.to +
                              "\" does not resolve under the scan root; use <...> for system "
                              "headers or fix the path"});
      }
    }
  }
  // Cycle detection: DFS with colors over resolved edges, deterministic
  // because edges map is sorted and adjacency is in line order.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::function<void(const std::string&)> visit = [&](const std::string& file) {
    color[file] = 1;
    const auto it = graph.edges.find(file);
    if (it != graph.edges.end()) {
      for (const auto& edge : it->second) {
        if (!edge.resolved) continue;
        if (color[edge.to] == 1) {
          // Back edge: this include closes a cycle.
          sink.emit(Finding{display(display_prefix, file), edge.line, "include-cycle",
                            "including \"" + edge.to +
                                "\" closes an include cycle; break the cycle with a forward "
                                "declaration or by splitting the header"});
          continue;
        }
        if (color[edge.to] == 0) visit(edge.to);
      }
    }
    color[file] = 2;
  };
  for (const auto& [file, _] : graph.edges) {
    if (color[file] == 0) visit(file);
  }
}

void check_layers(const IncludeGraph& graph, const LayerConfig& config,
                  const std::string& display_prefix, Sink& sink) {
  for (const auto& [file, edges] : graph.edges) {
    const std::string from_module = config.module_for(file);
    if (config.deps.find(from_module) == config.deps.end()) {
      sink.emit(Finding{display(display_prefix, file), 1, "unknown-module",
                        "module '" + from_module +
                            "' has no layer assignment; add it to the layer table in "
                            "tools/tsn_analyze/include_graph.cpp"});
      continue;
    }
    const std::set<std::string> allowed = config.closure(from_module);
    for (const auto& edge : edges) {
      if (!edge.resolved) continue;  // reported as include-missing
      const std::string to_module = config.module_for(edge.to);
      if (to_module == from_module || allowed.count(to_module) > 0) continue;
      sink.emit(Finding{display(display_prefix, file), edge.line, "layer-violation",
                        "module '" + from_module + "' may not include '" + to_module +
                            "' (allowed: own module and transitive deps of '" + from_module +
                            "'); invert the dependency or move the shared type down"});
    }
  }
}

}  // namespace tsn::analyze
