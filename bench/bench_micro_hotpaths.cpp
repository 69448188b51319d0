// X1 — hot-path microbenchmarks (google-benchmark).
//
// The codec, book and lookup costs that set the software side of the
// paper's latency budgets: a well-tuned software system gets ~650 ns/event
// at the busiest second's average and ~100 ns/event at its peak (§3).
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "book/order_book.hpp"
#include "capture/replay.hpp"
#include "exchange/exchange.hpp"
#include "feed/symbols.hpp"
#include "mcast/mroute.hpp"
#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "proto/boe.hpp"
#include "proto/norm.hpp"
#include "proto/pitch.hpp"
#include "proto/xpress.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "telemetry/report.hpp"
#include "trading/filter.hpp"
#include "trading/gateway.hpp"

namespace {

using namespace tsn;

void BM_PitchEncodeAddOrder(benchmark::State& state) {
  proto::pitch::AddOrder add;
  add.order_id = 42;
  add.symbol = proto::Symbol{"ACME"};
  add.quantity = 100;
  add.price = 60'000;
  std::vector<std::byte> out;
  out.reserve(64);
  for (auto _ : state) {
    out.clear();
    net::WireWriter w{out};
    proto::pitch::encode(proto::pitch::Message{add}, w);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PitchEncodeAddOrder);

void BM_NormDecodeUpdate(benchmark::State& state) {
  std::vector<std::byte> wire;
  net::WireWriter w{wire};
  proto::norm::Update u;
  u.symbol = proto::Symbol{"ACME"};
  u.price = 1'000'000;
  u.quantity = 100;
  proto::norm::encode(u, w);
  for (auto _ : state) {
    net::WireReader r{wire};
    auto decoded = proto::norm::decode_one(r);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_NormDecodeUpdate);

void BM_BoeEncodeNewOrder(benchmark::State& state) {
  proto::boe::NewOrder order{1, proto::Side::kBuy, 100, proto::Symbol{"ACME"}, 1'000'000,
                             proto::boe::TimeInForce::kDay};
  for (auto _ : state) {
    auto bytes = proto::boe::encode(proto::boe::Message{order}, 1);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_BoeEncodeNewOrder);

void BM_BookSubmitCancel(benchmark::State& state) {
  book::OrderBook book{proto::Symbol{"ACME"}};
  proto::OrderId id = 1;
  sim::Rng rng{7};
  for (auto _ : state) {
    const auto side = (id & 1) != 0 ? proto::Side::kBuy : proto::Side::kSell;
    const auto price = 9'000 + static_cast<proto::Price>(rng.next_below(50)) * 100 +
                       (side == proto::Side::kBuy ? 0 : 5'200);
    book.submit({id, side, price, 100});
    if (id > 64) (void)book.cancel(id - 64);
    ++id;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed iteration count: the live window is 64 orders, but the id index
// accumulates tombstones and order ids keep growing, so an open-ended run
// lets google-benchmark's auto-scaling time differently-aged books between
// runs. A fixed count makes every run measure the same book history.
BENCHMARK(BM_BookSubmitCancel)->Iterations(1 << 16);

void BM_BookMatchingCrossingFlow(benchmark::State& state) {
  // The 650 ns / 100 ns-per-event budgets of §3, against a real book.
  book::OrderBook book{proto::Symbol{"ACME"}};
  proto::OrderId id = 1;
  for (int i = 0; i < 1'000; ++i) {
    book.submit({id++, proto::Side::kSell, 10'000 + (i % 50) * 100, 100});
  }
  for (auto _ : state) {
    // Marketable buy that executes against the best ask, then replenish.
    const auto best = book.best();
    if (best.ask_price) book.submit({id++, proto::Side::kBuy, *best.ask_price, 100}, true);
    book.submit({id++, proto::Side::kSell, best.ask_price.value_or(10'000), 100});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed iteration count for the same reason as BM_BookSubmitCancel: resting
// depth is constant (each fill is replenished) but ids and execution history
// grow, so auto-scaled runs would compare differently-aged books.
BENCHMARK(BM_BookMatchingCrossingFlow)->Iterations(1 << 14);

// Operations per BM_SoaBookUpdateMix iteration (the book.updates_per_s row).
constexpr int kBookMixOps = 4;

void BM_SoaBookUpdateMix(benchmark::State& state) {
  // A realistic per-datagram update blend against the warm pooled SoA book:
  // passive add on each side, a marketable IOC that executes one resting
  // order, and a cancel of an aged bid. Sells are consumed as fast as they
  // are added and bids live exactly 64 iterations, so the book (and the
  // slabs behind it) stay bounded for the whole run.
  book::OrderBook book{proto::Symbol{"ACME"}};
  book.reserve(1 << 10, 256);
  sim::Rng rng{11};
  std::uint64_t iter = 0;
  for (auto _ : state) {
    const proto::OrderId base = iter * 3;
    const auto bid_price = 9'000 + static_cast<proto::Price>(rng.next_below(50)) * 100;
    const auto ask_price = 14'200 + static_cast<proto::Price>(rng.next_below(50)) * 100;
    book.submit({base + 1, proto::Side::kBuy, bid_price, 100});
    book.submit({base + 2, proto::Side::kSell, ask_price, 100});
    const auto best = book.best();
    if (best.ask_price) book.submit({base + 3, proto::Side::kBuy, *best.ask_price, 100}, true);
    if (iter >= 64) (void)book.cancel((iter - 64) * 3 + 1);
    ++iter;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBookMixOps);
}
BENCHMARK(BM_SoaBookUpdateMix)->Iterations(1 << 15);

// Messages per BM_PitchBatchDecode datagram (pitch.batch_decode_msgs_per_s).
constexpr int kBatchMsgs = 50;

void BM_PitchBatchDecode(benchmark::State& state) {
  // One warm decode_batch pass over a 50-message datagram with the bimodal
  // add/execute/delete blend of §2 (20 long-form adds, 15 executes, 15
  // deletes). The SoA buffer is reused, so the loop body is pure decode.
  std::vector<std::byte> payload;
  proto::pitch::FrameBuilder builder{1, 1458,
                                     [&payload](std::vector<std::byte> p,
                                                const proto::pitch::UnitHeader&) {
                                       payload = std::move(p);
                                     }};
  proto::pitch::AddOrder add;
  add.symbol = proto::Symbol{"ACME"};
  add.quantity = 100;
  add.price = 60'000;
  for (int i = 0; i < 20; ++i) {
    add.order_id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{add});
  }
  proto::pitch::OrderExecuted exec;
  exec.executed_quantity = 50;
  for (int i = 0; i < 15; ++i) {
    exec.order_id = static_cast<proto::OrderId>(i + 1);
    exec.execution_id = static_cast<proto::ExecId>(1'000 + i);
    builder.append(proto::pitch::Message{exec});
  }
  proto::pitch::DeleteOrder del;
  for (int i = 0; i < 15; ++i) {
    del.order_id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{del});
  }
  builder.flush();
  proto::pitch::DecodedBatch batch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::pitch::decode_batch(payload, batch));
    benchmark::DoNotOptimize(batch.count);
  }
  if (batch.count != kBatchMsgs) state.SkipWithError("batch decode dropped messages");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatchMsgs);
}
BENCHMARK(BM_PitchBatchDecode);

// Messages per BM_ReplayToBook recording (replay.to_book_msgs_per_s).
constexpr int kReplayMsgs = 1 + 512 + 256 + 256;

void BM_ReplayToBook(benchmark::State& state) {
  // The end-to-end replay lane: recorded Ethernet frames through
  // decode_frame, batch decode, and SoA book updates. The recording is a
  // clock tick, 512 adds, 256 full executes, and 256 deletes, so the book
  // drains back to empty on every pass — state is bounded across
  // iterations and any divergence (unknown ids, malformed frames, resting
  // leftovers) fails the benchmark rather than skewing it.
  const auto src_mac = net::MacAddr::from_host_id(1);
  const auto dst_mac = net::MacAddr::from_host_id(2);
  const net::Ipv4Addr src_ip{10, 0, 0, 1};
  const net::Ipv4Addr dst_ip{239, 100, 0, 1};
  std::vector<capture::RecordedFrame> recording;
  proto::pitch::FrameBuilder builder{
      1, 1458,
      [&](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
        recording.push_back(capture::RecordedFrame{
            sim::Time{}, net::build_udp_frame(src_mac, dst_mac, src_ip, dst_ip, 30'001,
                                              30'001, p)});
      }};
  builder.append(proto::pitch::Message{proto::pitch::Time{34'200}});
  sim::Rng rng{13};
  for (int i = 0; i < 512; ++i) {
    proto::pitch::AddOrder add;
    add.order_id = static_cast<proto::OrderId>(i + 1);
    add.side = (i & 1) != 0 ? proto::Side::kBuy : proto::Side::kSell;
    add.price = (add.side == proto::Side::kBuy ? 9'000 : 14'200) +
                static_cast<proto::Price>(rng.next_below(50)) * 100;
    add.quantity = 100;
    add.symbol = proto::Symbol{"ACME"};
    builder.append(proto::pitch::Message{add});
  }
  for (int i = 0; i < 256; ++i) {
    proto::pitch::OrderExecuted exec;
    exec.order_id = static_cast<proto::OrderId>(2 * i + 1);
    exec.executed_quantity = 100;  // full fill: the order leaves the book
    exec.execution_id = static_cast<proto::ExecId>(10'000 + i);
    builder.append(proto::pitch::Message{exec});
  }
  for (int i = 0; i < 256; ++i) {
    proto::pitch::DeleteOrder del;
    del.order_id = static_cast<proto::OrderId>(2 * i + 2);
    builder.append(proto::pitch::Message{del});
  }
  builder.flush();
  book::OrderBook book{proto::Symbol{"ACME"}};
  capture::BookReplayer replayer{book};
  for (auto _ : state) {
    benchmark::DoNotOptimize(replayer.replay(recording));
  }
  if (replayer.stats().unknown_orders != 0 || replayer.stats().malformed_datagrams != 0) {
    state.SkipWithError("replay diverged");
  }
  if (book.open_orders() != 0) state.SkipWithError("book did not drain");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kReplayMsgs);
}
// Fixed count: each iteration replays the same full recording, so
// auto-scaling only adds noise (and execution history still accumulates).
BENCHMARK(BM_ReplayToBook)->Iterations(1 << 9);

void BM_MrouteLookup(benchmark::State& state) {
  mcast::MrouteTable table{4'096};
  for (std::uint32_t g = 0; g < 2'048; ++g) {
    table.join(net::Ipv4Addr{0xef000000u + g}, g % 32);
  }
  std::uint32_t g = 0;
  for (auto _ : state) {
    auto lookup = table.lookup(net::Ipv4Addr{0xef000000u + (g++ & 2'047)});
    benchmark::DoNotOptimize(lookup.ports);
  }
}
BENCHMARK(BM_MrouteLookup);

void BM_XpressCompress(benchmark::State& state) {
  proto::xpress::Compressor tx;
  std::vector<std::byte> out;
  out.reserve(1 << 20);
  const std::vector<std::byte> payload(26, std::byte{0x5a});
  std::uint32_t seq = 1;
  for (auto _ : state) {
    if (out.size() > (1 << 19)) out.clear();
    benchmark::DoNotOptimize(tx.encode(3, seq++, payload, out));
  }
}
BENCHMARK(BM_XpressCompress);

void BM_SymbolFilter(benchmark::State& state) {
  feed::SymbolUniverse universe{1'024, 3};
  trading::SymbolFilter filter;
  for (std::size_t i = 0; i < 64; ++i) filter.watch(universe.at(i).symbol);
  proto::norm::Update u;
  std::size_t i = 0;
  std::uint64_t kept = 0;
  for (auto _ : state) {
    u.symbol = universe.at(i++ & 1'023).symbol;
    kept += filter.relevant(u) ? 1 : 0;
  }
  benchmark::DoNotOptimize(kept);
}
BENCHMARK(BM_SymbolFilter);

void BM_FrameDecodeFullStack(benchmark::State& state) {
  const auto frame = net::build_udp_frame(
      net::MacAddr::from_host_id(1), net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 1},
      net::Ipv4Addr{10, 0, 0, 2}, 1, 2, std::vector<std::byte>(92, std::byte{1}));
  for (auto _ : state) {
    auto decoded = net::decode_frame(frame);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_FrameDecodeFullStack);

void BM_EngineScheduleFire(benchmark::State& state) {
  // One full pooled-scheduler cycle per iteration: acquire a slot, push the
  // heap entry, pop it, run the action. The warm pool means the loop body
  // never allocates (asserted by tsn_hotpath_alloc_tests).
  sim::Engine engine;
  engine.reserve(16);
  std::uint64_t fired = 0;
  for (auto _ : state) {
    engine.schedule_in(sim::nanos(std::int64_t{10}), [&fired] { ++fired; });
    engine.step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineCancel(benchmark::State& state) {
  // Schedule + O(1) generation-checked cancel; run() prunes the stale heap
  // entry so the heap stays flat across iterations.
  sim::Engine engine;
  engine.reserve(16);
  for (auto _ : state) {
    const auto handle = engine.schedule_in(sim::micros(std::int64_t{1}), [] {});
    benchmark::DoNotOptimize(engine.cancel(handle));
    engine.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineCancel);

void BM_PacketPoolChurn(benchmark::State& state) {
  // Pooled make -> drop for a Table 1 new-order frame: inline payload copy
  // plus a freelist block reuse; no heap traffic once warm.
  net::PacketFactory factory;
  std::array<std::byte, 26> frame{};
  frame.fill(std::byte{0x5a});
  { auto warm = factory.make(std::span<const std::byte>{frame}, sim::Time{}); }
  for (auto _ : state) {
    auto packet = factory.make(std::span<const std::byte>{frame}, sim::Time{});
    benchmark::DoNotOptimize(packet);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketPoolChurn);

void BM_GatewayReconnectCycle(benchmark::State& state) {
  // One full session-recovery cycle per iteration: silent uplink death,
  // jittered backoff, re-login (the exchange sees a takeover), replay
  // request, sequence reset, back to ready. Not a nanosecond hot path —
  // it bounds how much simulation machinery one recovery costs, so a
  // regression here means reconnect drills got slower everywhere.
  sim::Engine engine;
  net::Fabric fabric{engine};
  exchange::ExchangeConfig econfig;
  econfig.symbols = {{proto::Symbol{"ACME"}, proto::InstrumentKind::kEquity,
                      proto::price_from_dollars(100)}};
  econfig.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  econfig.feed_mac = net::MacAddr::from_host_id(1);
  econfig.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  econfig.order_mac = net::MacAddr::from_host_id(2);
  econfig.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  exchange::Exchange exch{engine, std::move(econfig)};
  trading::GatewayConfig gconfig;
  gconfig.exchange_mac = exch.order_nic().mac();
  gconfig.exchange_ip = exch.order_nic().ip();
  gconfig.exchange_port = exch.config().order_port;
  gconfig.client_mac = net::MacAddr::from_host_id(20);
  gconfig.client_ip = net::Ipv4Addr{10, 0, 0, 20};
  gconfig.upstream_mac = net::MacAddr::from_host_id(21);
  gconfig.upstream_ip = net::Ipv4Addr{10, 0, 0, 21};
  trading::Gateway gw{engine, gconfig};
  fabric.connect(gw.upstream_nic(), 0, exch.order_nic(), 0, net::LinkConfig{});
  gw.start();
  engine.run();
  for (auto _ : state) {
    gw.kill_upstream();
    engine.run();
  }
  if (gw.upstream_state() != trading::UpstreamState::kReady) {
    state.SkipWithError("gateway did not return to ready");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed iteration count: the exchange keeps dead connections as post-mortem
// records, so an open-ended run would grow state (and skew late iterations).
BENCHMARK(BM_GatewayReconnectCycle)->Iterations(512);

// Forwards console output as usual while collecting per-benchmark timings
// for the machine-readable report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Timing {
    std::string name;
    double real_ns = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      timings_.push_back({run.benchmark_name(), run.GetAdjustedRealTime()});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Timing>& timings() const noexcept { return timings_; }

 private:
  std::vector<Timing> timings_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Telemetry hooks are compiled in but no TraceSink is installed, so
  // these timings measure the zero-cost disabled path.
  tsn::bench::Report bench_report{"micro_hotpaths", "Hot-path microbenchmarks"};
  bench_report.param("trace_sink", "none");
  double schedule_fire_ns = 0.0;
  double pool_churn_ns = 0.0;
  double reconnect_cycle_ns = 0.0;
  double book_mix_ns = 0.0;
  double batch_decode_ns = 0.0;
  double replay_to_book_ns = 0.0;
  for (const auto& timing : reporter.timings()) {
    bench_report.metric(timing.name, timing.real_ns, "ns");
    if (timing.name.starts_with("BM_GatewayReconnectCycle")) {
      // A whole recovery (death, backoff, re-login, replay) is hundreds of
      // simulation events, not a nanosecond hot path: its own ceiling.
      bench_report.check(timing.name + ".under_200us", timing.real_ns < 200'000.0);
      reconnect_cycle_ns = timing.real_ns;
      continue;
    }
    if (timing.name.starts_with("BM_ReplayToBook")) {
      // One iteration replays a 1k-message recording, not a single op:
      // its own ceiling (~195 ns/msg at the 200 us line).
      bench_report.check(timing.name + ".under_200us", timing.real_ns < 200'000.0);
      replay_to_book_ns = timing.real_ns;
      continue;
    }
    // Generous ceiling: every hot path stays sub-microsecond-ish; a blown
    // budget here means an accidental hot-path regression (e.g. telemetry
    // hooks no longer compiling out).
    bench_report.check(timing.name + ".under_5us", timing.real_ns < 5'000.0);
    if (timing.name == "BM_EngineScheduleFire") schedule_fire_ns = timing.real_ns;
    if (timing.name == "BM_PacketPoolChurn") pool_churn_ns = timing.real_ns;
    if (timing.name.starts_with("BM_SoaBookUpdateMix")) book_mix_ns = timing.real_ns;
    if (timing.name.starts_with("BM_PitchBatchDecode")) batch_decode_ns = timing.real_ns;
  }
  // Throughput rows for the allocation-free hot paths; bench_compare gates
  // these against bench/baselines/ so a pooled-path regression fails CI.
  if (schedule_fire_ns > 0.0) {
    bench_report.metric("scheduler.events_per_s", 1e9 / schedule_fire_ns, "events/s");
  }
  if (pool_churn_ns > 0.0) {
    bench_report.metric("packet_pool.packets_per_s", 1e9 / pool_churn_ns, "packets/s");
  }
  if (reconnect_cycle_ns > 0.0) {
    bench_report.metric("gateway.reconnects_per_s", 1e9 / reconnect_cycle_ns,
                        "reconnects/s");
  }
  // SoA book + batch decode lanes (ROADMAP item 4). The replay row is the
  // headline: full recorded frames to book updates on one core.
  if (book_mix_ns > 0.0) {
    bench_report.metric("book.updates_per_s", kBookMixOps * 1e9 / book_mix_ns,
                        "updates/s");
  }
  if (batch_decode_ns > 0.0) {
    bench_report.metric("pitch.batch_decode_msgs_per_s",
                        kBatchMsgs * 1e9 / batch_decode_ns, "msgs/s");
  }
  if (replay_to_book_ns > 0.0) {
    bench_report.metric("replay.to_book_msgs_per_s",
                        kReplayMsgs * 1e9 / replay_to_book_ns, "msgs/s");
  }
  bench_report.check("scheduler.events_per_s.reported", schedule_fire_ns > 0.0);
  bench_report.check("packet_pool.packets_per_s.reported", pool_churn_ns > 0.0);
  bench_report.check("gateway.reconnects_per_s.reported", reconnect_cycle_ns > 0.0);
  bench_report.check("book.updates_per_s.reported", book_mix_ns > 0.0);
  bench_report.check("pitch.batch_decode_msgs_per_s.reported", batch_decode_ns > 0.0);
  bench_report.check("replay.to_book_msgs_per_s.reported", replay_to_book_ns > 0.0);
  bench_report.check("all_benchmarks_ran", reporter.timings().size() >= 16);
  return bench_report.finish();
}
