// Corpus-driven self-test. Each rule owns a directory of on-disk snippets
// (tools/tsn_analyze/corpus/<rule>/), so adding a rule means adding files,
// not editing embedded string literals. A snippet line that should be
// flagged carries a `lint-expect: <rule>` comment; the self-test demands an
// exact match between expected and actual (line, rule) pairs in both
// directions, so a rule that goes blind AND a rule that starts over-firing
// both fail CI the same way code regressions do.
#include "self_test.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "include_graph.hpp"
#include "options.hpp"
#include "reachability.hpp"
#include "rules.hpp"

namespace tsn::analyze {

namespace {

namespace fs = std::filesystem;

enum class Family {
  kWire,
  kDeterminism,
  kHotpath,
  kLayering,
  kReachability,
  kOptions,
  kSuppression
};

const std::map<std::string, Family>& rule_families() {
  static const std::map<std::string, Family> kFamilies = {
      {"unchecked-reader", Family::kWire},
      {"raw-memcpy", Family::kWire},
      {"raw-cast", Family::kWire},
      {"unchecked-length-index", Family::kWire},
      {"wall-clock", Family::kDeterminism},
      {"unseeded-random", Family::kDeterminism},
      {"unordered-iter", Family::kDeterminism},
      {"pointer-identity", Family::kDeterminism},
      {"cross-domain-sched", Family::kDeterminism},
      {"hotpath-alloc", Family::kHotpath},
      {"layering", Family::kLayering},
      {"reachability", Family::kReachability},
      {"options", Family::kOptions},
      {"allow-no-reason", Family::kSuppression},
  };
  return kFamilies;
}

// (file, line) -> expected rules, harvested from `lint-expect: <rule>`
// markers in the raw (pre-strip) lines.
using Expectations = std::map<std::pair<std::string, int>, std::multiset<std::string>>;

void harvest_expectations(const std::string& file, const std::vector<std::string>& raw,
                          Expectations& out) {
  const std::string_view key = "lint-expect: ";
  for (std::size_t li = 0; li < raw.size(); ++li) {
    std::size_t pos = 0;
    while ((pos = raw[li].find(key, pos)) != std::string::npos) {
      pos += key.size();
      std::size_t end = pos;
      while (end < raw[li].size() &&
             (is_ident_char(raw[li][end]) || raw[li][end] == '-')) {
        ++end;
      }
      if (end > pos) {
        out[{file, static_cast<int>(li) + 1}].insert(raw[li].substr(pos, end - pos));
      }
      pos = end;
    }
  }
}

// The synthetic layer table used by the layering corpus trees: a diamond
// a <- {b, c} <- d, so "b includes c", cycles, and unknown modules all have
// somewhere to be wrong.
LayerConfig corpus_layer_config() {
  LayerConfig c;
  c.deps["a"] = {};
  c.deps["b"] = {"a"};
  c.deps["c"] = {"a"};
  c.deps["d"] = {"b", "c"};
  return c;
}

struct CaseResult {
  int cases = 0;
  int failures = 0;
};

// Compares findings against expectations for one case (a file or a tree).
bool check_case(const std::string& name, const Expectations& expected,
                const std::vector<Finding>& findings) {
  Expectations actual;
  for (const auto& f : findings) {
    actual[{f.file, f.line}].insert(f.rule);
  }
  if (actual == expected) return true;
  std::cerr << "self-test FAILED: " << name << "\n";
  for (const auto& [where, rules] : expected) {
    for (const auto& rule : rules) {
      const auto it = actual.find(where);
      if (it == actual.end() || it->second.count(rule) == 0) {
        std::cerr << "    missing: " << where.first << ":" << where.second << " [" << rule
                  << "]\n";
      }
    }
  }
  for (const auto& f : findings) {
    const auto it = expected.find({f.file, f.line});
    if (it == expected.end() || it->second.count(f.rule) == 0) {
      std::cerr << "    unexpected: " << f.file << ":" << f.line << " [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  return false;
}

void run_line_rule_case(const std::string& rule, Family family, const fs::path& rule_dir,
                        const fs::path& file, CaseResult& result) {
  ++result.cases;
  const std::string rel = relative_path(file, rule_dir);
  const std::vector<std::string> raw = read_lines(file);
  Expectations expected;
  harvest_expectations(rel, raw, expected);
  Sink sink;
  switch (family) {
    case Family::kWire:
      scan_wire(rel, raw, sink);
      break;
    case Family::kDeterminism:
      scan_determinism(rel, rel, raw, harvest_unordered_names(raw), sink);
      break;
    case Family::kHotpath:
      scan_hotpath(rel, raw, sink);
      break;
    case Family::kSuppression:
      break;  // every case runs the allow() reason check below
    case Family::kLayering:
    case Family::kReachability:
    case Family::kOptions:
      break;  // handled by run_tree_case
  }
  scan_allow_reasons(rel, raw, sink);
  if (!check_case(rule + "/" + rel, expected, sink.findings)) ++result.failures;
}

// A tree case: the layering family sees the tree as a scan root; the
// reachability and options families see it as a repo, with the scan root
// in src/ and the roots and setters beside it.
void run_tree_case(const std::string& rule, Family family, const fs::path& tree,
                   CaseResult& result) {
  ++result.cases;
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(tree)) {
    if (entry.is_regular_file() && scannable(entry.path())) {
      files.push_back(relative_path(entry.path(), tree));
    }
  }
  std::sort(files.begin(), files.end());
  Expectations expected;
  Sink sink;
  for (const auto& rel : files) {
    const std::vector<std::string> raw = read_lines(tree / rel);
    harvest_expectations(rel, raw, expected);
    scan_allow_reasons(rel, raw, sink);
  }
  const auto provider = [&tree](const std::string& rel, std::vector<std::string>& lines) {
    const fs::path p = tree / rel;
    if (!fs::is_regular_file(p)) return false;
    lines = read_lines(p);
    return true;
  };
  if (family == Family::kReachability) {
    (void)check_reachability(files, "src", provider, "src", sink);
  } else if (family == Family::kOptions) {
    (void)check_options(files, "src", provider, "src", sink);
  } else {
    const IncludeGraph graph = build_include_graph(files, provider);
    check_includes(graph, "", sink);
    check_layers(graph, corpus_layer_config(), "", sink);
  }
  if (!check_case(rule + "/" + tree.filename().string(), expected, sink.findings)) {
    ++result.failures;
  }
}

}  // namespace

int run_self_test(const std::string& corpus_dir) {
  const fs::path root{corpus_dir};
  if (!fs::is_directory(root)) {
    std::cerr << "tsn_analyze --self-test: corpus directory not found: " << corpus_dir << "\n";
    return 2;
  }
  CaseResult result;
  std::set<std::string> rules_seen;
  std::vector<fs::path> rule_dirs;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (entry.is_directory()) rule_dirs.push_back(entry.path());
  }
  std::sort(rule_dirs.begin(), rule_dirs.end());
  for (const auto& rule_dir : rule_dirs) {
    const std::string rule = rule_dir.filename().string();
    const auto family_it = rule_families().find(rule);
    if (family_it == rule_families().end()) {
      std::cerr << "self-test FAILED: corpus directory '" << rule
                << "' does not name a known rule\n";
      ++result.failures;
      continue;
    }
    rules_seen.insert(rule);
    if (family_it->second == Family::kLayering || family_it->second == Family::kReachability ||
        family_it->second == Family::kOptions) {
      std::vector<fs::path> trees;
      for (const auto& entry : fs::directory_iterator(rule_dir)) {
        if (entry.is_directory()) trees.push_back(entry.path());
      }
      std::sort(trees.begin(), trees.end());
      for (const auto& tree : trees) run_tree_case(rule, family_it->second, tree, result);
      continue;
    }
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(rule_dir)) {
      if (entry.is_regular_file() && scannable(entry.path())) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      run_line_rule_case(rule, family_it->second, rule_dir, file, result);
    }
  }
  // Every rule family must have corpus coverage; a rule added without
  // snippets is a self-test failure, not a silent gap.
  for (const auto& [rule, _] : rule_families()) {
    if (rules_seen.count(rule) == 0) {
      std::cerr << "self-test FAILED: no corpus directory for rule '" << rule << "'\n";
      ++result.failures;
    }
  }
  if (result.failures == 0) {
    std::cout << "tsn_analyze self-test: " << result.cases << " corpus cases ok\n";
    return 0;
  }
  std::cerr << "tsn_analyze self-test: " << result.failures << " of " << result.cases
            << " corpus cases failed\n";
  return 1;
}

}  // namespace tsn::analyze
