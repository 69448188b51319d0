// Unit tests for tsn_analyze's include-graph builder, cycle detector, layer
// checker, reachability roots and option setters, run over in-memory file
// trees via the FileProvider hook.
// The on-disk corpora (tools/tsn_analyze/corpus/layering) exercise the same
// code end-to-end through the CLI; these tests pin the builder's edge-level
// behaviour (resolution, line numbers, angle-include handling) that the
// corpus format cannot express.
#include "include_graph.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "json_mini.hpp"
#include "options.hpp"
#include "reachability.hpp"

namespace tsn::analyze {
namespace {

using Tree = std::map<std::string, std::vector<std::string>>;

FileProvider provider_for(const Tree& tree) {
  return [&tree](const std::string& rel, std::vector<std::string>& lines) {
    const auto it = tree.find(rel);
    if (it == tree.end()) return false;
    lines = it->second;
    return true;
  };
}

std::vector<std::string> keys_of(const Tree& tree) {
  std::vector<std::string> out;
  for (const auto& [path, lines] : tree) out.push_back(path);
  return out;
}

std::vector<std::string> rules_of(const Sink& sink) {
  std::vector<std::string> out;
  for (const auto& f : sink.findings) out.push_back(f.rule);
  return out;
}

TEST(IncludeGraph, DiamondResolvesAllEdges) {
  const Tree tree{
      {"a/base.hpp", {"#pragma once"}},
      {"b/mid1.hpp", {"#pragma once", "#include \"a/base.hpp\""}},
      {"c/mid2.hpp", {"#pragma once", "#include \"a/base.hpp\""}},
      {"d/top.hpp",
       {"#pragma once", "#include \"b/mid1.hpp\"", "#include \"c/mid2.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  ASSERT_EQ(graph.edges.size(), 4U);
  EXPECT_TRUE(graph.edges.at("a/base.hpp").empty());
  ASSERT_EQ(graph.edges.at("d/top.hpp").size(), 2U);
  const IncludeEdge& first = graph.edges.at("d/top.hpp")[0];
  EXPECT_EQ(first.to, "b/mid1.hpp");
  EXPECT_EQ(first.line, 2);
  EXPECT_TRUE(first.resolved);

  Sink sink;
  check_includes(graph, "src", sink);
  EXPECT_TRUE(sink.findings.empty()) << "diamond is acyclic and fully resolved";
}

TEST(IncludeGraph, AngleIncludesAreIgnored) {
  const Tree tree{
      {"a/x.hpp", {"#include <vector>", "#include <a/x.hpp>", "#include \"a/y.hpp\""}},
      {"a/y.hpp", {"#pragma once"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  ASSERT_EQ(graph.edges.at("a/x.hpp").size(), 1U);
  EXPECT_EQ(graph.edges.at("a/x.hpp")[0].to, "a/y.hpp");
}

TEST(IncludeGraph, CommentedIncludeIsNotAnEdge) {
  const Tree tree{
      {"a/x.hpp", {"// #include \"a/gone.hpp\"", "/* #include \"a/also.hpp\" */"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  EXPECT_TRUE(graph.edges.at("a/x.hpp").empty());
}

TEST(IncludeGraph, MissingTargetReported) {
  const Tree tree{
      {"a/x.hpp", {"#include \"a/nope.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  ASSERT_EQ(graph.edges.at("a/x.hpp").size(), 1U);
  EXPECT_FALSE(graph.edges.at("a/x.hpp")[0].resolved);

  Sink sink;
  check_includes(graph, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "include-missing");
  EXPECT_EQ(sink.findings[0].file, "src/a/x.hpp");
  EXPECT_EQ(sink.findings[0].line, 1);
}

TEST(IncludeGraph, SelfIncludeIsALengthOneCycle) {
  const Tree tree{
      {"a/x.hpp", {"#pragma once", "#include \"a/x.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_includes(graph, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "include-cycle");
  EXPECT_EQ(sink.findings[0].line, 2);
}

TEST(IncludeGraph, TwoFileCycleReportedOnce) {
  const Tree tree{
      {"a/x.hpp", {"#include \"a/y.hpp\""}},
      {"a/y.hpp", {"#pragma once", "#include \"a/x.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_includes(graph, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "include-cycle");
}

TEST(LayerConfig, ClosureIsTransitive) {
  LayerConfig config;
  config.deps = {{"a", {}}, {"b", {"a"}}, {"c", {"b"}}};
  const std::set<std::string> closure = config.closure("c");
  EXPECT_EQ(closure, (std::set<std::string>{"a", "b"}));
  EXPECT_TRUE(config.closure("a").empty());
  EXPECT_EQ(config.validate(), "");
}

TEST(LayerConfig, ValidateRejectsCyclicDeclaration) {
  LayerConfig config;
  config.deps = {{"a", {"b"}}, {"b", {"a"}}};
  EXPECT_NE(config.validate(), "");
}

TEST(LayerConfig, FileOverrideRebindsModule) {
  LayerConfig config;
  config.deps = {{"base", {}}, {"core", {"base"}}};
  config.file_overrides = {{"core/check.hpp", "base"}};
  EXPECT_EQ(config.module_for("core/check.hpp"), "base");
  EXPECT_EQ(config.module_for("core/other.hpp"), "core");
}

TEST(LayerCheck, UpwardIncludeViolates) {
  LayerConfig config;
  config.deps = {{"a", {}}, {"b", {"a"}}};
  const Tree tree{
      {"a/low.hpp", {"#include \"b/high.hpp\""}},
      {"b/high.hpp", {"#pragma once"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_layers(graph, config, "src", sink);
  EXPECT_EQ(rules_of(sink), (std::vector<std::string>{"layer-violation"}));
  EXPECT_EQ(sink.findings[0].file, "src/a/low.hpp");
}

TEST(LayerCheck, TransitiveDependencyAllowed) {
  LayerConfig config;
  config.deps = {{"a", {}}, {"b", {"a"}}, {"c", {"b"}}};
  const Tree tree{
      {"a/base.hpp", {"#pragma once"}},
      {"c/top.hpp", {"#include \"a/base.hpp\""}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_layers(graph, config, "src", sink);
  EXPECT_TRUE(sink.findings.empty()) << "c -> a is in the closure of c's deps";
}

TEST(LayerCheck, UndeclaredModuleReported) {
  LayerConfig config;
  config.deps = {{"a", {}}};
  const Tree tree{
      {"zz/orphan.hpp", {"#pragma once"}},
  };
  const IncludeGraph graph = build_include_graph(keys_of(tree), provider_for(tree));
  Sink sink;
  check_layers(graph, config, "src", sink);
  ASSERT_EQ(sink.findings.size(), 1U);
  EXPECT_EQ(sink.findings[0].rule, "unknown-module");
}

TEST(LayerCheck, DefaultConfigIsAcyclic) {
  EXPECT_EQ(default_layer_config().validate(), "");
}

// Reachability trees hold the scan root (src/) and the directories beside
// it, keyed by their path in the repo.
std::set<std::string> reached(const Tree& tree) {
  return reached_files(keys_of(tree), "src", provider_for(tree));
}

TEST(Reachability, AHeaderReachesItsPairedSource) {
  const Tree tree{
      {"bench/b.cpp", {"#include \"a/x.hpp\""}},
      {"src/a/x.hpp", {"#pragma once"}},
      {"src/a/x.cpp", {"#include \"a/x.hpp\"", "#include \"b/y.hpp\""}},
      {"src/b/y.hpp", {"#pragma once"}},
      {"src/b/y.cpp", {"#include \"b/y.hpp\""}},
  };
  // y is named only by x.cpp, which a bench reaches through x.hpp.
  EXPECT_EQ(reached(tree),
            (std::set<std::string>{"a/x.cpp", "a/x.hpp", "b/y.cpp", "b/y.hpp"}));
}

TEST(Reachability, ATestsFileIsNotARoot) {
  const Tree tree{
      {"tests/test_x.cpp", {"#include \"a/x.hpp\""}},
      {"src/a/x.hpp", {"#pragma once"}},
      {"src/a/x.cpp", {"#include \"a/x.hpp\""}},
  };
  EXPECT_TRUE(reached(tree).empty());
  Sink sink;
  check_reachability(keys_of(tree), "src", provider_for(tree), "src", sink);
  ASSERT_EQ(rules_of(sink), (std::vector<std::string>{"unreached-module"}));
  EXPECT_EQ(sink.findings[0].file, "src/a/x.hpp");
  EXPECT_EQ(sink.findings[0].line, 1);
}

TEST(Reachability, APerfbenchOnlyUserCountsAsAUser) {
  const Tree tree{
      {"perfbench/src/w.cpp", {"#include \"common.hpp\"", "#include \"a/x.hpp\"",
                               "int run() { return tsn::a::Engine{4}.lanes(); }"}},
      {"perfbench/src/common.hpp", {"#pragma once"}},
      {"src/a/x.hpp",
       {"#pragma once", "namespace tsn::a {", "class Engine {", " public:",
        "  explicit Engine(int lanes) : lanes_(lanes) {}",
        "  [[nodiscard]] int lanes() const { return lanes_; }", " private:", "  int lanes_;",
        "};", "}  // namespace tsn::a"}},
  };
  EXPECT_EQ(reached(tree), (std::set<std::string>{"a/x.hpp"}));
  Sink sink;
  check_reachability(keys_of(tree), "src", provider_for(tree), "src", sink);
  EXPECT_TRUE(sink.findings.empty()) << "perfbench constructs Engine";
}

TEST(Reachability, AMemberOnlyTestsCallIsReportedUnlessAPlainObserver) {
  const Tree tree{
      {"bench/b.cpp", {"#include \"a/x.hpp\"", "int main() { tsn::a::Pump p; p.run(); }"}},
      {"tests/test_x.cpp",
       {"#include \"a/x.hpp\"", "void t(tsn::a::Pump& p) { p.drain(); (void)p.depth(); }"}},
      {"src/a/x.hpp",
       {"#pragma once", "namespace tsn::a {", "class Pump {", " public:",
        "  void run() { step(); }", "  void drain();",
        "  [[nodiscard]] int depth() const { return depth_; }", "  void reset();",
        " private:", "  void step() {}", "  int depth_ = 0;", "};", "}  // namespace tsn::a"}},
  };
  Sink sink;
  // run, drain, depth, reset and step; step is called from run's body.
  EXPECT_EQ(check_reachability(keys_of(tree), "src", provider_for(tree), "src", sink), 5U);
  ASSERT_EQ(rules_of(sink), (std::vector<std::string>{"unreached-member", "unreached-member"}));
  EXPECT_EQ(sink.findings[0].line, 6);  // drain: only a test calls it
  EXPECT_EQ(sink.findings[1].line, 8);  // reset: nothing calls it
}

TEST(Reachability, ReachOnlyThroughATestOnlyModuleStaysUnreached) {
  const Tree tree{
      {"bench/b.cpp", {"#include \"a/x.hpp\""}},
      {"tests/test_y.cpp", {"#include \"b/y.hpp\""}},
      {"src/a/x.hpp", {"#pragma once"}},
      {"src/b/y.hpp", {"#pragma once", "#include \"c/z.hpp\""}},
      {"src/c/z.hpp", {"#pragma once"}},
  };
  EXPECT_EQ(reached(tree), (std::set<std::string>{"a/x.hpp"}));
  Sink sink;
  check_reachability(keys_of(tree), "src", provider_for(tree), "src", sink);
  ASSERT_EQ(sink.findings.size(), 2U);
  EXPECT_EQ(sink.findings[0].file, "src/b/y.hpp");
  EXPECT_EQ(sink.findings[1].file, "src/c/z.hpp");
}

TEST(Reachability, TheAnalyzerCorpusIsNotARoot) {
  EXPECT_TRUE(is_reach_root("tools/bench_compare/bench_compare.cpp"));
  EXPECT_TRUE(is_reach_root("examples/quickstart.cpp"));
  EXPECT_FALSE(is_reach_root("tools/tsn_analyze/corpus/reachability/good/bench/b.cpp"));
  EXPECT_FALSE(is_reach_root("tests/test_x.cpp"));
  EXPECT_FALSE(is_reach_root("benchmarks/x.cpp"));
}

std::set<std::string> members_written(const std::vector<std::string>& code) {
  return harvest_option_writes(code, {}).members;
}

TEST(Options, EveryWriteFormCountsAsASetter) {
  const std::vector<std::string> code{
      "void tune(WidgetConfig& c, WidgetConfig* p, Fabric& f) {",
      "  c.alpha = 1;",
      "  c.beta += 2;",
      "  p->gamma = 3;",
      "  c.link.rate_bps = 4;",
      "  c.groups.push_back(f.group());",
      "  c.delta",
      "      = 5;",
      "  const WidgetConfig d{.epsilon = 6,",
      "                      .zeta{7}};",
      "}"};
  EXPECT_EQ(members_written(code),
            (std::set<std::string>{"alpha", "beta", "gamma", "link", "rate_bps", "groups",
                                   "delta", "epsilon", "zeta"}));
}

TEST(Options, ReadsCallsAndComparisonsAreNotWrites) {
  const std::vector<std::string> code{
      "int use(const WidgetConfig& c, Stack& s) {",
      "  const int x = c.alpha;",
      "  if (c.beta == 2 || c.gamma != 3 || c.delta <= 4 || c.epsilon >= 5) return 0;",
      "  s.bind(c.zeta.size());",
      "  // c.eta = 1;",
      "  const char* text = \"c.theta = 1\";",
      "  return x + c.iota;",
      "}"};
  EXPECT_TRUE(members_written(strip_comments(code).lines).empty());
}

TEST(Options, AnOwnersConfigCopyIsNotASetter) {
  const std::vector<std::string> code{
      "Pump::Pump(PumpConfig config) : config_(config) {",
      "  config_.interval = std::max(1, config_.interval);",
      "  this->config_.burst += 1;",
      "  config_.link.rate_bps = 2;",
      "  other.rate = config_.rate;",
      "}"};
  EXPECT_EQ(members_written(code), (std::set<std::string>{"rate"}));
}

TEST(Options, PositionalAggregateInitializationCoversLeadingFields) {
  const std::vector<std::string> code{
      "struct LinkConfig {",
      "  long rate = 1;",
      "};",
      "const net::LinkConfig cable{10, sim::nanos(std::int64_t{50}), 1 << 20};",
      "port.cable = LinkConfig{1, 2};",
      "const LinkConfig empty{};",
      "const LinkConfig named{.loss = 0.5};",
      "const QueueConfig queue{8};"};
  const OptionWrites writes = harvest_option_writes(code, {"LinkConfig", "PumpConfig"});
  EXPECT_EQ(writes.positional,
            (std::map<std::string, std::size_t>{{"LinkConfig", 3}}));
  EXPECT_EQ(writes.members, (std::set<std::string>{"cable", "loss"}));
}

TEST(Options, NeitherTestsNorTheAnalyzerCorpusSetOptions) {
  const Tree tree{
      {"src/a/x.hpp",
       {"#pragma once", "struct XConfig {", "  int shown = 1;", "  int tested = 2;",
        "  int corpus_only = 3;", "  int owner_only = 4;", "  void describe() const {}",
        "  static constexpr int kLimit = 9;", "};"}},
      {"src/a/x.cpp", {"void X::x() { config_.owner_only = 5; }"}},
      {"examples/x.cpp", {"int main() { XConfig c; c.shown = 2; }"}},
      {"tests/test_x.cpp", {"TEST(X, Y) { XConfig c; c.tested = 3; }"}},
      {"tools/tsn_analyze/corpus/options/t/bench/b.cpp",
       {"void b(XConfig& c) { c.corpus_only = 1; }"}},
  };
  // The setters are the reachability roots.
  EXPECT_FALSE(is_reach_root("tests/test_x.cpp"));
  EXPECT_TRUE(is_reach_root("perfbench/src/w.cpp"));
  EXPECT_FALSE(is_reach_root("tools/tsn_analyze/corpus/options/t/bench/b.cpp"));
  EXPECT_FALSE(is_reach_root("docs/x.cpp"));
  Sink sink;
  EXPECT_EQ(check_options(keys_of(tree), "src", provider_for(tree), "src", sink), 4U);
  ASSERT_EQ(sink.findings.size(), 3U);
  EXPECT_EQ(sink.findings[0].file, "src/a/x.hpp");
  EXPECT_EQ(sink.findings[0].line, 4);
  EXPECT_EQ(sink.findings[1].line, 5);
  EXPECT_EQ(sink.findings[2].line, 6);
  EXPECT_EQ(sink.findings[2].rule, "unset-option");
}

TEST(Options, AModuleKeptByAllowIsOutOfScope) {
  const Tree tree{
      {"src/a/kept.hpp",
       {"// tsn-lint: allow(unreached-module) the drills in tests/ are its users", "#pragma once",
        "struct KeptConfig {", "  int tested = 1;", "};"}},
      {"tests/test_kept.cpp", {"TEST(K, K) { KeptConfig c; c.tested = 2; }"}},
  };
  Sink sink;
  EXPECT_EQ(check_options(keys_of(tree), "src", provider_for(tree), "src", sink), 0U);
  EXPECT_TRUE(sink.findings.empty());
}

TEST(Baseline, AbsorbsUpToCountThenReportsRemainder) {
  Baseline baseline;
  baseline.entries.push_back({"net/wire.hpp", "raw-memcpy", 1, 0});
  std::vector<Finding> findings{
      {"src/net/wire.hpp", 10, "raw-memcpy", "m"},
      {"src/net/wire.hpp", 20, "raw-memcpy", "m"},
      {"src/net/wire.hpp", 30, "wall-clock", "m"},
  };
  const std::vector<Finding> active =
      apply_baseline(std::move(findings), baseline, "src");
  ASSERT_EQ(active.size(), 2U);
  EXPECT_EQ(active[0].line, 20);
  EXPECT_EQ(active[1].rule, "wall-clock");
  EXPECT_EQ(baseline.entries[0].matched, 1);
}

TEST(JsonMini, ParsesNestedDocument) {
  const auto parsed = parse_json(R"({"a": [1, true, "x"], "b": {"c": null}})");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  const JsonValue* a = parsed->get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->array->size(), 3U);
  EXPECT_EQ((*a->array)[2].string, "x");
}

TEST(JsonMini, RejectsTrailingGarbage) {
  std::string error;
  EXPECT_FALSE(parse_json("{} trailing", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace tsn::analyze
