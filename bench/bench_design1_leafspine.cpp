// D1 — §4.1 "Design 1: Traditional Switches".
//
// Runs the full trading stack (exchange -> normalizer -> strategies ->
// gateway -> exchange) on a leaf-spine fabric of 500 ns commodity switches
// with functions grouped by rack, and measures the latency decomposition
// event-driven. Prints the paper's hop arithmetic (12 switch hops, 3
// software hops, network = half the total) next to the measured values.
#include <cstdint>
#include <cstdio>

#include "core/design.hpp"
#include "deploy/reference.hpp"
#include "telemetry/report.hpp"

int main() {
  using namespace tsn;
  std::printf("D1: leaf-spine trading network (Design 1)\n\n");

  // Analytic model first: the paper's arithmetic.
  core::TraditionalDesign model;
  const auto analytic = model.tick_to_trade();
  std::printf("analytic round trip (12 switch hops @500 ns + 3 software hops @2 us):\n  %s\n\n",
              analytic.to_string().c_str());

  deploy::DeploymentConfig config;
  config.strategy_count = 8;
  config.events_per_second = 60'000;
  deploy::LeafSpineDeployment deployment{config};
  deployment.start();
  deployment.run(sim::millis(std::int64_t{200}));
  const auto report = deployment.report();
  const std::uint64_t events = deployment.engine().events_fired();
  const double events_per_feed_msg =
      static_cast<double>(events) / static_cast<double>(report.feed_messages);

  std::printf("simulated deployment (8 strategies, 200 ms of market activity):\n");
  std::printf("  feed datagrams published:   %10llu\n",
              static_cast<unsigned long long>(report.feed_datagrams));
  std::printf("  normalized updates:         %10llu\n",
              static_cast<unsigned long long>(report.normalized_updates));
  std::printf("  updates at strategies:      %10llu (gaps: %llu)\n",
              static_cast<unsigned long long>(report.updates_received),
              static_cast<unsigned long long>(report.sequence_gaps));
  std::printf("  orders sent / acked:        %10llu / %llu\n",
              static_cast<unsigned long long>(report.orders_sent),
              static_cast<unsigned long long>(report.acks));
  std::printf("  frames dropped in fabric:   %10llu\n",
              static_cast<unsigned long long>(report.frames_dropped));
  std::printf("  engine events:              %10llu (%.2f per feed message)\n\n",
              static_cast<unsigned long long>(events), events_per_feed_msg);

  auto print_stats = [](const char* label, const telemetry::Histogram& stats) {
    std::printf("  %-26s min %8.0f  mean %8.0f  p99 %8.0f  max %8.0f (ns)\n", label,
                stats.min(), stats.mean(), stats.percentile(99.0), stats.max());
  };
  print_stats("feed path (exch->strategy):", report.feed_path_ns);
  print_stats("tick-to-trade (strategy):", report.tick_to_trade_ns);
  print_stats("order RTT (strategy<->exch):", report.order_rtt_ns);

  // The measured one-way feed path crosses 3 switch hops (leaf-spine-leaf)
  // twice (exchange->normalizer, normalizer->strategy): 6 hops of the 12.
  const double measured_network = report.feed_path_ns.mean() -
                                  2.0 * 900.0 -  // two software hops en route (norm rx + none)
                                  0.0;
  std::printf("\nnetwork share check: analytic %.0f%%; measured feed path %.0f ns over 6 of\n"
              "the 12 hops is consistent with ~500 ns/hop plus serialization (%.0f ns/hop).\n",
              analytic.network_share() * 100.0, report.feed_path_ns.mean(),
              measured_network / 6.0);
  std::printf("\npaper: \"half of the overall time through the system is spent in the"
              " network!\"\n");

  bench::Report bench_report{"design1_leafspine", "Design 1: leaf-spine trading network"};
  bench_report.param("strategy_count", static_cast<std::int64_t>(config.strategy_count));
  bench_report.param("events_per_second",
                     static_cast<std::int64_t>(config.events_per_second));
  bench_report.param("run_ms", std::int64_t{200});
  bench_report.metric("analytic_total_ns", analytic.total().nanos(), "ns");
  bench_report.metric("analytic_network_share", analytic.network_share() * 100.0, "%");
  bench_report.metric("feed_datagrams", static_cast<double>(report.feed_datagrams), "count");
  bench_report.metric("normalized_updates", static_cast<double>(report.normalized_updates),
                      "count");
  bench_report.metric("updates_received", static_cast<double>(report.updates_received),
                      "count");
  bench_report.metric("orders_sent", static_cast<double>(report.orders_sent), "count");
  bench_report.metric("acks", static_cast<double>(report.acks), "count");
  bench_report.metric("sequence_gaps", static_cast<double>(report.sequence_gaps), "count");
  bench_report.metric("frames_dropped", static_cast<double>(report.frames_dropped), "count");
  bench_report.metric("sim.events", static_cast<double>(events), "count");
  bench_report.metric("sim.events_per_feed_msg", events_per_feed_msg, "events/msg");
  bench_report.stats("feed_path_ns", report.feed_path_ns, "ns");
  bench_report.stats("tick_to_trade_ns", report.tick_to_trade_ns, "ns");
  bench_report.stats("order_rtt_ns", report.order_rtt_ns, "ns");
  // §4.1 shape: the network is ~half the analytic round trip, the stack
  // actually traded, and the fabric carried the feed without loss.
  bench_report.check("network_share_near_half", analytic.network_share() > 0.40 &&
                                                    analytic.network_share() < 0.60);
  bench_report.check("traded", report.orders_sent > 0 && report.acks > 0);
  bench_report.check("no_sequence_gaps", report.sequence_gaps == 0);
  bench_report.check("no_fabric_drops", report.frames_dropped == 0);
  return bench_report.finish();
}
