// tsn_analyze command-line driver.
//
//   tsn_analyze --self-test <corpus-dir>     run the on-disk rule corpora
//   tsn_analyze --validate <findings.json>   schema-check a findings artifact
//   tsn_analyze --root <dir> [--baseline f] [--json out]
//                                            whole-tree scan: all rule
//                                            families, layering included;
//                                            reachability roots are the
//                                            bench/, examples/, perfbench/
//                                            and tools/ beside <dir>
//   tsn_analyze <paths...>                   ad-hoc scan of files/dirs with
//                                            the line rules (no layering,
//                                            reachability or options —
//                                            those need a tree root)
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "baseline.hpp"
#include "include_graph.hpp"
#include "options.hpp"
#include "reachability.hpp"
#include "report.hpp"
#include "rules.hpp"
#include "self_test.hpp"
#include "telemetry/json.hpp"

namespace {

namespace fs = std::filesystem;
using namespace tsn::analyze;

int usage() {
  std::cerr << "usage: tsn_analyze --self-test <corpus-dir>\n"
               "       tsn_analyze --validate <findings.json>\n"
               "       tsn_analyze --root <dir> [--baseline <file>] [--json <out>]\n"
               "       tsn_analyze <paths...>\n";
  return 2;
}

// Wire rules stay scoped to the subsystems that parse frame bytes; the rest
// of the tree sees only determinism/hot-path/layering rules.
bool wire_scoped(const std::string& module) {
  return module == "proto" || module == "net" || module == "mcast";
}

std::vector<fs::path> collect_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && scannable(entry.path())) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

int run_validate(const std::string& path) {
  std::vector<std::string> lines = read_lines(path);
  std::string text;
  for (const auto& line : lines) {
    text += line;
    text += '\n';
  }
  std::string error;
  if (!validate_findings_json(text, &error)) {
    std::cerr << "tsn_analyze --validate: " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << "tsn_analyze --validate: " << path << " conforms to " << kFindingsSchema
            << "\n";
  return 0;
}

int run_root_scan(const std::string& root, const std::string& baseline_path,
                  const std::string& json_out) {
  if (!fs::is_directory(root)) {
    std::cerr << "tsn_analyze: --root " << root << " is not a directory\n";
    return 2;
  }
  RunReport report;
  report.root = root;

  std::vector<fs::path> files = collect_files(root);
  report.files_scanned = files.size();

  // Pass 1: harvest unordered-container identifiers per module, so a member
  // declared in a header is recognised when iterated in a sibling .cpp.
  std::map<std::string, std::set<std::string>> module_unordered;
  std::map<std::string, std::vector<std::string>> raw_by_rel;
  for (const auto& file : files) {
    const std::string rel = relative_path(file, root);
    raw_by_rel[rel] = read_lines(file);
    const std::set<std::string> names = harvest_unordered_names(raw_by_rel[rel]);
    module_unordered[module_of(rel)].insert(names.begin(), names.end());
  }

  // Pass 2: line rules.
  for (const auto& [rel, raw] : raw_by_rel) {
    const std::string display = root + "/" + rel;
    const std::string module = module_of(rel);
    if (wire_scoped(module)) scan_wire(display, raw, report.sink);
    scan_determinism(display, rel, raw, module_unordered[module], report.sink);
    scan_hotpath(display, raw, report.sink);
    scan_allow_reasons(display, raw, report.sink);
  }

  // Pass 3: include graph + layering over the whole tree.
  std::vector<std::string> rel_files;
  rel_files.reserve(raw_by_rel.size());
  for (const auto& [rel, _] : raw_by_rel) rel_files.push_back(rel);
  const auto provider = [&raw_by_rel](const std::string& rel, std::vector<std::string>& out) {
    const auto it = raw_by_rel.find(rel);
    if (it == raw_by_rel.end()) return false;
    out = it->second;
    return true;
  };
  const IncludeGraph graph = build_include_graph(rel_files, provider);
  check_includes(graph, root, report.sink);
  check_layers(graph, default_layer_config(), root, report.sink);

  // Passes 4 and 5: reachability and options, over the directories beside
  // the scan root.
  fs::path src_path = fs::absolute(root).lexically_normal();
  if (src_path.filename().empty()) src_path = src_path.parent_path();
  const fs::path tree = src_path.parent_path();
  const std::string src_dir = src_path.filename().string();
  std::map<std::string, std::vector<std::string>> tree_lines;  // keyed by path in `tree`
  for (const auto& [rel, raw] : raw_by_rel) tree_lines[src_dir + "/" + rel] = raw;
  // The reachability roots, which are also the option setters, and the
  // tests, which unreached-member reads.
  std::vector<std::string_view> dirs(kReachRootDirs.begin(), kReachRootDirs.end());
  dirs.push_back(kTestDir);
  for (const std::string_view dir : dirs) {
    if (!fs::is_directory(tree / dir)) continue;
    for (const auto& file : collect_files(tree / dir)) {
      const std::string rel = relative_path(file, tree);
      if (is_reach_root(rel) || dir == kTestDir) tree_lines[rel] = read_lines(file);
    }
  }
  std::vector<std::string> tree_files;
  for (const auto& [path, _] : tree_lines) tree_files.push_back(path);
  const auto tree_provider = [&tree_lines](const std::string& path,
                                           std::vector<std::string>& out) {
    const auto it = tree_lines.find(path);
    if (it == tree_lines.end()) return false;
    out = it->second;
    return true;
  };
  report.member_functions =
      check_reachability(tree_files, src_dir, tree_provider, root, report.sink);
  report.option_fields = check_options(tree_files, src_dir, tree_provider, root, report.sink);

  if (!baseline_path.empty()) {
    std::string error;
    auto baseline = load_baseline(baseline_path, &error);
    if (!baseline) {
      std::cerr << "tsn_analyze: " << error << "\n";
      return 2;
    }
    report.baseline = std::move(*baseline);
  }
  report.active = apply_baseline(report.sink.findings, report.baseline, root);

  const std::size_t n = print_summary(report);

  if (!json_out.empty()) {
    const std::string json = findings_to_json(report);
    std::string error;
    if (!validate_findings_json(json, &error)) {
      // The writer and validator disagreeing is a bug in this tool, not in
      // the scanned tree — fail loudly.
      std::cerr << "tsn_analyze: internal error: emitted JSON fails own schema: " << error
                << "\n";
      return 2;
    }
    if (!tsn::telemetry::write_text_file(json_out, json)) {
      std::cerr << "tsn_analyze: cannot write " << json_out << "\n";
      return 2;
    }
    std::cout << "tsn_analyze: findings JSON written to " << json_out << "\n";
  }
  return n == 0 ? 0 : 1;
}

int run_adhoc_scan(const std::vector<std::string>& targets) {
  RunReport report;
  report.root = ".";
  std::vector<fs::path> files;
  for (const auto& target : targets) {
    if (fs::is_directory(target)) {
      std::vector<fs::path> sub = collect_files(target);
      files.insert(files.end(), sub.begin(), sub.end());
    } else if (fs::is_regular_file(target) && scannable(target)) {
      files.emplace_back(target);
    } else {
      std::cerr << "tsn_analyze: skipping " << target << " (not a source file or directory)\n";
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  report.files_scanned = files.size();
  for (const auto& file : files) {
    const std::string display = file.generic_string();
    const std::vector<std::string> raw = read_lines(file);
    scan_wire(display, raw, report.sink);
    scan_determinism(display, display, raw, harvest_unordered_names(raw), report.sink);
    scan_hotpath(display, raw, report.sink);
    scan_allow_reasons(display, raw, report.sink);
  }
  report.active = report.sink.findings;
  return print_summary(report) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();

  if (args[0] == "--self-test") {
    if (args.size() != 2) return usage();
    return run_self_test(args[1]);
  }
  if (args[0] == "--validate") {
    if (args.size() != 2) return usage();
    return run_validate(args[1]);
  }

  std::string root;
  std::string baseline_path;
  std::string json_out;
  std::vector<std::string> targets;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--root" || a == "--baseline" || a == "--json") {
      if (i + 1 >= args.size()) return usage();
      (a == "--root" ? root : a == "--baseline" ? baseline_path : json_out) = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "tsn_analyze: unknown option " << a << "\n";
      return usage();
    } else {
      targets.push_back(a);
    }
  }
  if (!root.empty()) {
    if (!targets.empty()) {
      std::cerr << "tsn_analyze: --root scans the whole tree; drop the extra paths\n";
      return usage();
    }
    return run_root_scan(root, baseline_path, json_out);
  }
  if (targets.empty()) return usage();
  if (!baseline_path.empty() || !json_out.empty()) {
    std::cerr << "tsn_analyze: --baseline/--json need --root\n";
    return usage();
  }
  return run_adhoc_scan(targets);
}
