// D2 — §4.2 "Design 2: The Cloud".
//
// Measures the cloud model's two defining properties event-driven:
// (i) fairness — tenants at very different physical distances observe the
// same one-way latency to the cloud-hosted exchange; and (ii) the cost —
// that equalized latency is orders of magnitude above a colo fabric, and
// anything beyond the cloud region crosses a WAN that dwarfs it further.
#include "sim/engine.hpp"
#include <cstdio>
#include <memory>
#include <vector>

#include "core/design.hpp"
#include "net/stack.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "topo/cloud.hpp"

int main() {
  using namespace tsn;
  std::printf("D2: cloud hosting with latency equalization (Design 2)\n\n");

  sim::Engine engine;
  net::Fabric fabric{engine};
  topo::CloudRegion cloud{fabric};

  // The "exchange" endpoint inside the region.
  auto exchange = std::make_unique<net::Nic>(engine, "cloud-exchange",
                                             net::MacAddr::from_host_id(1),
                                             net::Ipv4Addr{10, 0, 0, 1});
  (void)cloud.attach_tenant(*exchange, sim::micros(std::int64_t{1}));

  // Tenants at increasing physical distance from the region.
  struct Tenant {
    std::unique_ptr<net::Nic> nic;
    sim::Duration native;
    sim::Time arrival;
  };
  std::vector<Tenant> tenants;
  for (int i = 0; i < 5; ++i) {
    Tenant t;
    t.native = sim::micros(std::int64_t{2 + 20 * i});
    t.nic = std::make_unique<net::Nic>(engine, "tenant" + std::to_string(i),
                                       net::MacAddr::from_host_id(10 + static_cast<std::uint32_t>(i)),
                                       net::Ipv4Addr{10, 0, 1, static_cast<std::uint8_t>(i + 1)});
    (void)cloud.attach_tenant(*t.nic, t.native);
    tenants.push_back(std::move(t));
  }
  for (auto& tenant : tenants) {
    tenant.nic->set_rx_handler([&tenant, &engine](const net::PacketPtr&, sim::Time) {
      tenant.arrival = engine.now();
    });
  }

  // One "market data" frame to every tenant, released at the same instant —
  // the fairness experiment of cloud-exchange proposals.
  const sim::Time release = engine.now();
  for (const auto& tenant : tenants) {
    exchange->send_frame(net::build_udp_frame(exchange->mac(),
                                              net::MacAddr::from_host_id(0xaa),
                                              exchange->ip(), tenant.nic->ip(), 1, 2,
                                              std::vector<std::byte>(64, std::byte{1})));
  }
  engine.run();

  std::printf("%-10s %14s %16s\n", "tenant", "native (us)", "delivery (us)");
  telemetry::Histogram deliveries;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const double us = (tenants[i].arrival - release).micros();
    deliveries.add(us);
    std::printf("tenant%-4zu %14.1f %16.3f\n", i, tenants[i].native.micros(), us);
  }
  std::printf("\nfairness spread (max - min delivery): %.3f us  (equalized: ~0)\n",
              deliveries.max() - deliveries.min());

  core::TraditionalDesign colo;
  core::CloudDesign cloud_model;
  const auto colo_breakdown = colo.tick_to_trade();
  const auto cloud_breakdown = cloud_model.tick_to_trade();
  std::printf("\nround-trip comparison (analytic):\n");
  std::printf("  colo leaf-spine: %s\n", sim::to_string(colo_breakdown.total()).c_str());
  std::printf("  cloud equalized: %s  (%.0fx slower)\n",
              sim::to_string(cloud_breakdown.total()).c_str(),
              cloud_breakdown.total().nanos() / colo_breakdown.total().nanos());

  // Beyond the cloud: a colo-hosted peer across the WAN.
  auto external = std::make_unique<net::Nic>(engine, "colo-peer",
                                             net::MacAddr::from_host_id(99),
                                             net::Ipv4Addr{172, 16, 0, 1});
  (void)cloud.attach_external(*external);
  sim::Time wan_arrival;
  external->set_rx_handler([&](const net::PacketPtr&, sim::Time at) { wan_arrival = at; });
  const sim::Time wan_start = engine.now();
  exchange->send_frame(net::build_udp_frame(exchange->mac(), net::MacAddr::from_host_id(0xab),
                                            exchange->ip(), external->ip(), 1, 2, {}));
  engine.run();
  std::printf("\ncommunication beyond the cloud: %.2f ms one-way (paper: \"latency for\n"
              "communication beyond the cloud will be excessive\")\n",
              (wan_arrival - wan_start).millis());

  bench::Report bench_report{"design2_cloud", "Design 2: cloud hosting with equalization"};
  bench_report.param("tenants", static_cast<std::int64_t>(tenants.size()));
  const double spread_us = deliveries.max() - deliveries.min();
  bench_report.stats("delivery_us", deliveries, "us");
  bench_report.metric("fairness_spread_us", spread_us, "us");
  bench_report.metric("colo_total_ns", colo_breakdown.total().nanos(), "ns");
  bench_report.metric("cloud_total_ns", cloud_breakdown.total().nanos(), "ns");
  bench_report.metric("cloud_over_colo",
                      cloud_breakdown.total().nanos() / colo_breakdown.total().nanos(), "x");
  bench_report.metric("beyond_cloud_one_way_ms", (wan_arrival - wan_start).millis(), "ms");
  // §4.2 shape: equalization removes the distance advantage; the price is
  // orders of magnitude over a colo fabric; beyond-cloud latency is worse.
  bench_report.check("equalized_spread_under_1us", spread_us < 1.0);
  bench_report.check("cloud_at_least_10x_colo",
                     cloud_breakdown.total().nanos() > 10.0 * colo_breakdown.total().nanos());
  bench_report.check("beyond_cloud_exceeds_equalized",
                     (wan_arrival - wan_start).millis() > 1.0);
  return bench_report.finish();
}
