// Hop-by-hop trace-span recording (§2, §4).
//
// The paper's central analyses are latency *decompositions*: Design 1's
// tick-to-trade is 12 commodity-switch hops plus 3 software hops; Design 3's
// L1S adds ~6 ns per fan-out and ~50 ns per merge. To reconstruct those
// decompositions from a live simulation rather than from the analytical
// model, packets carry a trace id and every instrumented hop (link, NIC,
// switch, L1S stage, software process, exchange matcher) appends a
// `{entity, kind, t_in, t_out}` span to the run's `TraceSink`.
//
// Span boundary convention — spans *tile* the timeline exactly:
//
//   kLink      [sender hand-off (incl. queue wait) .. wire arrival at dst]
//   kSwitch    [frame rx at switch .. egress hand-off to the out link]
//   kSoftware  [wire arrival at the host NIC .. out-frame hand-off]
//   kMatcher   [order wire arrival at exchange .. match complete]
//
// so that for a linear path, span[i].t_out == span[i+1].t_in and the sum of
// span durations equals the end-to-end latency at picosecond resolution
// (asserted in test_telemetry.cpp). kNicRx spans (NIC arrival .. handler
// run) are auxiliary: they sit *inside* the enclosing kSoftware span and are
// excluded from tiling. kL1sFanout/kL1sMerge tile like kSwitch.
//
// Trace context is ambient (a per-thread current trace id plus a per-thread
// sink pointer) — sound because each simulation shard is single-threaded on
// its worker and events never interleave mid-callback. Instrumentation is
// compiled in unconditionally but costs one pointer null-check when no sink
// is attached, so hot-path microbenches do not regress (X1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/domain.hpp"
#include "sim/time.hpp"

namespace tsn::telemetry {

// 0 means "untraced"; real ids are handed out by TraceSink::begin_trace.
using TraceId = std::uint64_t;

enum class SpanKind : std::uint8_t {
  kLink,       // cable: queueing + serialization + propagation
  kSwitch,     // commodity (L2/L3) switch hop
  kL1sFanout,  // layer-1 switch fan-out stage
  kL1sMerge,   // layer-1 switch merge stage
  kNicRx,      // NIC arrival to software handler (auxiliary, nested)
  kSoftware,   // application hop: normalizer / strategy / gateway
  kMatcher,    // exchange matching engine
  kWan,        // metro/long-haul segment
};

[[nodiscard]] std::string_view span_kind_name(SpanKind kind) noexcept;

struct Span {
  TraceId trace = 0;
  std::string entity;  // e.g. "leaf0", "cable:leaf0[2]->spine0", "strategy0"
  SpanKind kind = SpanKind::kLink;
  sim::Time t_in;
  sim::Time t_out;

  [[nodiscard]] sim::Duration duration() const noexcept { return t_out - t_in; }
  // kNicRx spans nest inside kSoftware spans and do not participate in the
  // end-to-end tiling sum.
  [[nodiscard]] bool tiles() const noexcept { return kind != SpanKind::kNicRx; }
};

// Per-run span store. Records arrive in simulation order (the engine is
// deterministic), so identical seeds yield identical span sequences and
// byte-identical JSON.
class TraceSink {
 public:
  // Starts a new trace whose origin (first span's t_in) is `origin`.
  [[nodiscard]] TraceId begin_trace(sim::Time origin);
  void record(Span span);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t trace_count() const noexcept { return next_ - 1; }
  // All spans of one trace, in record order.
  [[nodiscard]] std::vector<Span> trace(TraceId id) const;
  // tsn-lint: allow(unreached-member) traced Design 1 test: each trace starts at its origin
  [[nodiscard]] sim::Time origin(TraceId id) const;

  // Deterministic export: {"schema":"tsn-trace-v1","traces":[...]}.
  [[nodiscard]] std::string to_json() const;

  void clear() noexcept;

 private:
  std::vector<Span> spans_;
  std::vector<sim::Time> origins_;  // index = trace id - 1
  TraceId next_ = 1;
};

namespace detail {
// Ambient trace context, one per thread: a shard's events never interleave
// mid-callback on their worker thread, and shards on different workers get
// independent context (see sim/sharded_engine.hpp).
extern thread_local TraceSink* g_sink;
extern thread_local TraceId g_trace;
}  // namespace detail

[[nodiscard]] inline TraceSink* sink() noexcept { return detail::g_sink; }
[[nodiscard]] inline TraceId current_trace() noexcept { return detail::g_trace; }

// The one call instrumented hops make. No sink or an untraced packet: one
// predictable branch, no allocation.
inline void record_span(TraceId trace, std::string_view entity, SpanKind kind, sim::Time t_in,
                        sim::Time t_out) {
  if (detail::g_sink == nullptr || trace == 0) return;
  detail::g_sink->record(Span{trace, std::string{entity}, kind, t_in, t_out});
}

// RAII: attaches `sink` as the process-wide trace sink for its lifetime.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink& sink) noexcept : prev_(detail::g_sink) {
    detail::g_sink = &sink;
  }
  ~ScopedTraceSink() { detail::g_sink = prev_; }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* prev_;
};

// Shard-local trace sink: install on a Domain (`domain.set_context(&ctx)`)
// and the engine swaps this sink into the ambient thread-local around every
// batch of events that shard executes — on whichever thread runs it. This
// is how sharded runs keep spans: a ScopedTraceSink on the coordinating
// thread never follows a domain onto a windowed-mode worker, so spans
// recorded there used to be dropped. With one context per domain, golden
// and windowed runs deposit identical per-shard span sequences (windowed
// mode may interleave *across* shards differently, which is why the
// cross-mode contract compares per-sink contents, not a global stream).
// tsn-lint: allow(unreached-symbol) test_sim_domain installs it; goes if windowed mode goes
class DomainTraceContext final : public sim::ShardContext {
 public:
  explicit DomainTraceContext(TraceSink& sink) noexcept : sink_(&sink) {}
  void enter() noexcept override {
    prev_ = detail::g_sink;
    detail::g_sink = sink_;
  }
  void leave() noexcept override { detail::g_sink = prev_; }

 private:
  TraceSink* sink_;
  TraceSink* prev_ = nullptr;
};

// RAII: sets the ambient trace id (what PacketFactory stamps onto new
// frames). TraceScope{0} deliberately *suppresses* tracing for a scope —
// used for TCP acks and retransmissions so a trace stays a linear chain.
class TraceScope {
 public:
  explicit TraceScope(TraceId id) noexcept : prev_(detail::g_trace) { detail::g_trace = id; }
  ~TraceScope() { detail::g_trace = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceId prev_;
};

}  // namespace tsn::telemetry
