#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/latency_model.hpp"
#include "deploy/reference.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"

namespace tsn::telemetry {
namespace {

// --- TraceSink / ambient context ---------------------------------------------

TEST(TraceSink, HandsOutSequentialIdsAndKeepsOrigins) {
  TraceSink sink;
  const TraceId a = sink.begin_trace(sim::Time{} + sim::nanos(std::int64_t{10}));
  const TraceId b = sink.begin_trace(sim::Time{} + sim::nanos(std::int64_t{20}));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(sink.trace_count(), 2u);
  EXPECT_EQ(sink.origin(a), sim::Time{} + sim::nanos(std::int64_t{10}));
  EXPECT_EQ(sink.origin(b), sim::Time{} + sim::nanos(std::int64_t{20}));
}

TEST(TraceSink, TraceFiltersSpansInRecordOrder) {
  TraceSink sink;
  const TraceId a = sink.begin_trace(sim::Time{});
  const TraceId b = sink.begin_trace(sim::Time{});
  sink.record(Span{a, "x", SpanKind::kLink, sim::Time{}, sim::Time{} + sim::nanos(std::int64_t{1})});
  sink.record(Span{b, "y", SpanKind::kSwitch, sim::Time{}, sim::Time{} + sim::nanos(std::int64_t{2})});
  sink.record(Span{a, "z", SpanKind::kSoftware, sim::Time{}, sim::Time{} + sim::nanos(std::int64_t{3})});
  const auto spans_a = sink.trace(a);
  ASSERT_EQ(spans_a.size(), 2u);
  EXPECT_EQ(spans_a[0].entity, "x");
  EXPECT_EQ(spans_a[1].entity, "z");
  EXPECT_EQ(sink.trace(b).size(), 1u);
  sink.clear();
  EXPECT_EQ(sink.trace_count(), 0u);
  EXPECT_TRUE(sink.spans().empty());
}

TEST(Trace, RecordSpanIsNoOpWithoutSinkOrTrace) {
  // No sink attached: nothing happens (and nothing crashes).
  EXPECT_EQ(sink(), nullptr);
  record_span(1, "x", SpanKind::kLink, sim::Time{}, sim::Time{});

  TraceSink local;
  ScopedTraceSink attach{local};
  const TraceId id = local.begin_trace(sim::Time{});
  // Trace id 0 (untraced packet): dropped.
  record_span(0, "x", SpanKind::kLink, sim::Time{}, sim::Time{});
  EXPECT_TRUE(local.spans().empty());
  record_span(id, "x", SpanKind::kLink, sim::Time{}, sim::Time{});
  EXPECT_EQ(local.spans().size(), 1u);
}

TEST(Trace, ScopesNestAndRestore) {
  EXPECT_EQ(current_trace(), 0u);
  {
    TraceScope outer{7};
    EXPECT_EQ(current_trace(), 7u);
    {
      TraceScope suppress{0};  // e.g. a TCP ack leaving mid-trace
      EXPECT_EQ(current_trace(), 0u);
    }
    EXPECT_EQ(current_trace(), 7u);
  }
  EXPECT_EQ(current_trace(), 0u);

  TraceSink a;
  TraceSink b;
  EXPECT_EQ(sink(), nullptr);
  {
    ScopedTraceSink outer{a};
    EXPECT_EQ(sink(), &a);
    {
      ScopedTraceSink inner{b};
      EXPECT_EQ(sink(), &b);
    }
    EXPECT_EQ(sink(), &a);
  }
  EXPECT_EQ(sink(), nullptr);
}

TEST(Trace, SpanKindNamesAreStable) {
  EXPECT_EQ(span_kind_name(SpanKind::kLink), "link");
  EXPECT_EQ(span_kind_name(SpanKind::kSwitch), "switch");
  EXPECT_EQ(span_kind_name(SpanKind::kL1sFanout), "l1s_fanout");
  EXPECT_EQ(span_kind_name(SpanKind::kL1sMerge), "l1s_merge");
  EXPECT_EQ(span_kind_name(SpanKind::kNicRx), "nic_rx");
  EXPECT_EQ(span_kind_name(SpanKind::kSoftware), "software");
  EXPECT_EQ(span_kind_name(SpanKind::kMatcher), "matcher");
  EXPECT_EQ(span_kind_name(SpanKind::kWan), "wan");
}

TEST(Trace, NicRxSpansDoNotTile) {
  const Span nic{1, "nic", SpanKind::kNicRx, {}, {}};
  const Span cable{1, "cable", SpanKind::kLink, {}, {}};
  const Span sw{1, "sw", SpanKind::kSwitch, {}, {}};
  EXPECT_FALSE(nic.tiles());
  EXPECT_TRUE(cable.tiles());
  EXPECT_TRUE(sw.tiles());
}

// --- JsonWriter ---------------------------------------------------------------

TEST(JsonWriter, FormatsDeterministically) {
  JsonWriter w;
  w.begin_object();
  w.field("int_like", 3.0);
  w.field("fraction", 0.5);
  w.field("negative", std::int64_t{-42});
  w.field("big", std::uint64_t{18'000'000'000'000'000'000ULL});
  w.field("text", "a\"b\\c\n");
  w.field("flag", true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"int_like\":3,\"fraction\":0.5,\"negative\":-42,"
            "\"big\":18000000000000000000,\"text\":\"a\\\"b\\\\c\\n\",\"flag\":true}");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// --- Registry -----------------------------------------------------------------

TEST(Registry, GaugesAndHistogramRefsRoundTrip) {
  Registry registry;
  std::uint64_t drops = 3;
  registry.gauge("drops", [&drops] { return static_cast<double>(drops); });
  ++drops;  // sampled when read, not when registered
  Histogram owned;
  owned.add(100.0);
  owned.add(300.0);
  registry.histogram_ref("lat_ns", owned);

  EXPECT_DOUBLE_EQ(registry.gauge_value("drops"), 4.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("missing"), 0.0);
  owned.add(200.0);  // a reference: later samples show in the snapshot
  EXPECT_NE(registry.to_json(sim::Time{}).find("\"lat_ns\":{\"count\":3"), std::string::npos);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, SnapshotIsDeterministicAndSorted) {
  auto build = [] {
    auto registry = std::make_unique<Registry>();
    // Registration order differs from name order on purpose.
    registry->gauge("zeta", [] { return 1.0; });
    registry->gauge("alpha", [] { return 2.0; });
    registry->gauge("mid", [] { return 1.5; });
    return registry;
  };
  const auto a = build();
  const auto b = build();
  const std::string json_a = a->to_json(sim::Time{} + sim::nanos(std::int64_t{5}));
  EXPECT_EQ(json_a, b->to_json(sim::Time{} + sim::nanos(std::int64_t{5})));
  EXPECT_NE(json_a.find("\"schema\":\"tsn-metrics-v1\""), std::string::npos);
  // alpha sorts before zeta regardless of registration order.
  EXPECT_LT(json_a.find("\"alpha\""), json_a.find("\"zeta\""));
}

// --- Report -------------------------------------------------------------------

TEST(Report, CollectsRowsAndChecks) {
  tsn::bench::Report report{"unit_test", "Unit-test report"};
  report.param("design", "leaf-spine");
  report.param("hops", std::int64_t{12});
  report.param("rate", 2.5);
  report.metric("latency_ns", 123.0, "ns");
  Histogram h;
  h.add(1.0);
  h.add(3.0);
  report.stats("dist", h, "ns");
  EXPECT_TRUE(report.check("passes", true));
  EXPECT_TRUE(report.all_passed());
  EXPECT_FALSE(report.check("fails", false, "expected"));
  EXPECT_FALSE(report.all_passed());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\":\"tsn-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"hops\":12"), std::string::npos);
  EXPECT_NE(json.find("\"design\":\"leaf-spine\""), std::string::npos);
  EXPECT_NE(json.find("\"dist.p99\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\":false"), std::string::npos);
}

TEST(Report, FinishWritesArtifactToBenchDir) {
  ASSERT_EQ(setenv("TSN_BENCH_DIR", testing::TempDir().c_str(), 1), 0);
  tsn::bench::Report report{"unit_finish", "Finish writes JSON"};
  report.metric("m", 1.0, "count");
  report.check("ok", true);
  EXPECT_EQ(report.finish(), 0);
  const std::string path = report.output_path();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  char buf[64] = {};
  const auto n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  unsetenv("TSN_BENCH_DIR");
  ASSERT_GT(n, 0u);
  EXPECT_EQ(std::string{buf}.rfind("{\"schema\":\"tsn-bench-v1\"", 0), 0u);
}

// --- The flagship acceptance test: traced Design-1 ----------------------------

// A traced tick-to-trade run on Design 1 (leaf-spine, rack-per-function)
// must reconstruct the paper's 12-switch-hop + 3-software-hop decomposition
// from recorded spans, with the sum of span durations equal to the
// end-to-end latency exactly, at picosecond resolution.
TEST(Telemetry, TracedDesign1ReconstructsHopDecomposition) {
  deploy::DeploymentConfig config;
  // One strategy on one normalized partition from one feed unit keeps every
  // traced chain linear (no replication forks), so spans tile end to end.
  config.strategy_count = 1;
  config.norm_partitions = 1;
  config.exchange_units = 1;
  config.symbol_count = 4;
  config.events_per_second = 20'000;
  deploy::LeafSpineDeployment deployment{config};

  TraceSink sink;
  ScopedTraceSink attach{sink};
  deployment.start();
  deployment.run(sim::millis(std::int64_t{40}));

  ASSERT_GT(deployment.report().orders_sent, 0u);
  ASSERT_GT(sink.trace_count(), 0u);
  ASSERT_FALSE(sink.spans().empty());

  std::size_t full_chains = 0;
  for (TraceId id = 1; id <= sink.trace_count(); ++id) {
    const auto spans = sink.trace(id);
    const bool reached_matcher = std::any_of(spans.begin(), spans.end(), [](const Span& s) {
      return s.kind == SpanKind::kMatcher;
    });
    if (!reached_matcher) continue;

    const auto d = core::decompose(spans);
    // Two traces' updates can share one normalizer output datagram; only the
    // first owns the full chain. Full chains have the exact §4.1 shape.
    if (d.matcher_hops != 1 || d.software_hops != 3) continue;
    ++full_chains;

    // The paper's Design-1 arithmetic: 12 commodity switch hops and 3
    // software hops on the exchange -> normalizer -> strategy -> gateway ->
    // exchange round trip, and a link traversal on each side of every box.
    EXPECT_EQ(d.switch_hops, 12u) << "trace " << id;
    EXPECT_EQ(d.software_hops, 3u) << "trace " << id;
    EXPECT_EQ(d.matcher_hops, 1u) << "trace " << id;
    EXPECT_EQ(d.link_traversals, 16u) << "trace " << id;
    EXPECT_EQ(d.l1s_fanout_hops + d.l1s_merge_hops, 0u) << "trace " << id;

    // Spans tile: sorted by t_in, each begins exactly where the previous
    // ended, and the durations sum to the end-to-end latency exactly.
    std::vector<Span> tiling;
    for (const Span& s : spans) {
      if (s.tiles()) tiling.push_back(s);
    }
    std::sort(tiling.begin(), tiling.end(),
              [](const Span& a, const Span& b) { return a.t_in < b.t_in; });
    for (std::size_t i = 1; i < tiling.size(); ++i) {
      EXPECT_EQ(tiling[i].t_in.picos(), tiling[i - 1].t_out.picos())
          << "gap/overlap before " << tiling[i].entity << " in trace " << id;
    }
    EXPECT_TRUE(d.tiles_exactly()) << "trace " << id;
    EXPECT_EQ(d.total.picos(), d.end_to_end().picos()) << "trace " << id;
    EXPECT_EQ(d.first_in.picos(), sink.origin(id).picos()) << "trace " << id;

    // The chain starts at the feed flush and ends when the match completes.
    EXPECT_EQ(tiling.front().kind, SpanKind::kLink) << "trace " << id;
    EXPECT_EQ(tiling.back().kind, SpanKind::kMatcher) << "trace " << id;
  }
  EXPECT_GT(full_chains, 0u);
}

// The recorded decomposition agrees with the analytical model's hop
// arithmetic when the model is fed the same per-hop costs the simulation
// uses.
TEST(Telemetry, RecordedSwitchTimeMatchesAnalyticalModel) {
  deploy::DeploymentConfig config;
  config.strategy_count = 1;
  config.norm_partitions = 1;
  config.exchange_units = 1;
  config.symbol_count = 4;
  config.events_per_second = 20'000;
  deploy::LeafSpineDeployment deployment{config};
  const auto hop_latency = l2::kSwitchForwardingLatency;

  TraceSink sink;
  ScopedTraceSink attach{sink};
  deployment.start();
  deployment.run(sim::millis(std::int64_t{30}));

  for (TraceId id = 1; id <= sink.trace_count(); ++id) {
    const auto spans = sink.trace(id);
    const auto d = core::decompose(spans);
    if (d.matcher_hops != 1 || d.software_hops != 3 || d.switch_hops != 12) continue;

    core::PathSpec path;
    path.commodity_switch_hops = d.switch_hops;
    path.software_hops = 0;  // software time compared separately below
    path.commodity_hop_latency = hop_latency;
    path.link_traversals = 0;
    const auto analytical = core::evaluate(path);
    // Every recorded switch span is exactly one forwarding pipeline (no
    // queueing at this load), so recorded switching == hops * per-hop cost.
    EXPECT_EQ(d.switching.picos(), analytical.switching.picos()) << "trace " << id;
    return;  // one verified trace is enough
  }
  FAIL() << "no full tick-to-trade chain was traced";
}

}  // namespace
}  // namespace tsn::telemetry
