// Zero-allocation assertions for the simulator's hot paths.
//
// This file replaces the global allocation functions with counting variants,
// which changes behaviour for the whole process — so it builds into its own
// test executable (`tsn_hotpath_alloc_tests`) rather than joining tsn_tests.
//
// The contract under test (DESIGN.md "Hot-path memory model"): once pools
// and scratch buffers are warm, (a) an Engine schedule → fire (or cancel)
// cycle, (b) a PacketFactory make → drop cycle for small frames, (c) a
// full NIC → link → NIC UDP delivery, (d) a NIC → commodity switch →
// three-receiver multicast fan-out, a software-path fan-out and a NIC →
// commodity switch (MAC rewrite) → NIC unicast hop, (e) SoA book updates,
// (f) the session store's lifecycle and (g) a PITCH batch decode perform
// zero heap allocations, and (h) a feed datagram through the normalizer
// (NIC → books → NORM datagrams out) allocates only the payload of each
// frame longer than `net::Packet::kInlineCapacity` it puts on a link.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "book/order_book.hpp"
#include "exchange/session_store.hpp"
#include "l2/commodity_switch.hpp"
#include "mcast/subscribe.hpp"
#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/stack.hpp"
#include "proto/pitch.hpp"
#include "sim/engine.hpp"
#include "trading/normalizer.hpp"

namespace {

std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocation_count;
  // aligned_alloc requires size to be a multiple of alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocation_count;
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tsn {
namespace {

std::uint64_t allocations() { return g_allocation_count.load(std::memory_order_relaxed); }

TEST(HotPathAlloc, EngineScheduleFireCancelCycleIsAllocationFree) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  // Warm-up: grow the event pool and the heap vector to steady-state size,
  // including the cancel path.
  for (int i = 0; i < 1'024; ++i) {
    engine.schedule_in(sim::nanos(std::int64_t{100} + i), [&fired] { ++fired; });
  }
  for (int i = 0; i < 64; ++i) {
    engine.cancel(engine.schedule_in(sim::micros(std::int64_t{5}), [] {}));
  }
  engine.run();

  const std::uint64_t before = allocations();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 1'024; ++i) {
      engine.schedule_in(sim::nanos(std::int64_t{100} + i), [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; ++i) {
      engine.cancel(engine.schedule_in(sim::micros(std::int64_t{5}), [] {}));
    }
    engine.run();
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "steady-state schedule -> fire/cancel cycles must not touch the heap";
  EXPECT_EQ(fired, 9u * 1'024u);
}

TEST(HotPathAlloc, PacketMakeDropCycleIsAllocationFree) {
  net::PacketFactory factory;
  std::array<std::byte, 26> frame{};  // Table 1 new-order message
  frame.fill(std::byte{0x5a});
  // Warm-up: first make allocates the pooled block and sizes the freelist.
  { auto p = factory.make(std::span<const std::byte>{frame}, sim::Time{}); }

  const std::uint64_t before = allocations();
  for (int i = 0; i < 4'096; ++i) {
    auto p = factory.make(std::span<const std::byte>{frame}, sim::Time{});
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "small-frame make -> drop cycles must recycle pooled blocks";
  EXPECT_GE(factory.pool_blocks_reused(), 4'096u);
}

TEST(HotPathAlloc, EndToEndUdpDeliveryIsAllocationFree) {
  sim::Engine engine;
  net::Fabric fabric{engine};
  net::Nic a{engine, "a", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic b{engine, "b", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};
  fabric.connect(a, 0, b, 0, net::LinkConfig{});
  // A software hop on the receiver exercises the NIC's folded delivery: one
  // event at arrival + rx delay whose capture (NIC, packet, arrival) must
  // stay inline, like every hot-path capture (test_sim_action.cpp).
  b.set_rx_delay(sim::nanos(std::int64_t{500}));
  net::NetStack stack_a{a};
  net::NetStack stack_b{b};
  std::uint64_t received_bytes = 0;
  stack_b.bind_udp(7'000, [&received_bytes](const net::Ipv4Header&, const net::UdpHeader&,
                                            std::span<const std::byte> payload, sim::Time) {
    received_bytes += payload.size();
  });
  // 18 B payload -> 64 B frame (Ethernet + IPv4 + UDP + FCS): the inline
  // boundary exactly, so the pooled Packet carries it with no heap payload.
  std::array<std::byte, 18> payload{};
  payload.fill(std::byte{0x42});
  auto send_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      stack_a.send_udp(b.mac(), b.ip(), 6'000, 7'000, std::span<const std::byte>{payload});
      engine.run();
    }
  };
  send_batch(64);  // warm: pools, tx scratch, engine heap, link path
  ASSERT_EQ(received_bytes, 64u * 18u);

  const std::uint64_t before = allocations();
  send_batch(64);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm NIC -> link -> NIC UDP delivery must not touch the heap";
  EXPECT_EQ(received_bytes, 128u * 18u);
}

TEST(HotPathAlloc, WarmMulticastFanOutIsAllocationFree) {
  // A hardware fan-out runs inside the switch's pipeline event, whose
  // capture stays inline (InlineAction.HotPathCaptureSizesStayInline).
  sim::Engine engine;
  net::Fabric fabric{engine};
  l2::CommoditySwitch sw{engine, "sw", l2::CommoditySwitchConfig{.port_count = 4}};
  net::Nic source{engine, "src", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  fabric.connect(sw, 0, source, 0, net::LinkConfig{});
  const net::Ipv4Addr group{239, 1, 1, 1};
  std::vector<std::unique_ptr<net::Nic>> receivers;
  std::uint64_t delivered = 0;
  for (std::uint32_t r = 1; r <= 3; ++r) {
    receivers.push_back(std::make_unique<net::Nic>(engine, "rx" + std::to_string(r),
                                                   net::MacAddr::from_host_id(r + 1),
                                                   net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(r + 1)}));
    fabric.connect(sw, r, *receivers.back(), 0, net::LinkConfig{});
    receivers.back()->set_rx_handler(
        [&delivered](const net::PacketPtr&, sim::Time) { ++delivered; });
    mcast::join_group(*receivers.back(), group);
  }
  engine.run();  // IGMP reports program the switch's mroute
  const std::array<std::byte, 18> payload{};
  const auto frame = net::build_multicast_frame(source.mac(), source.ip(), group, 30001,
                                                std::span<const std::byte>{payload});
  auto send_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      source.send_frame(std::span<const std::byte>{frame});
      engine.run();
    }
  };
  send_batch(64);  // warm: pools, fan-out lists, engine heap, link path
  ASSERT_EQ(delivered, 3u * 64u);

  const std::uint64_t before = allocations();
  send_batch(64);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm NIC -> switch -> 3-receiver multicast fan-out must not touch the heap";
  EXPECT_EQ(delivered, 3u * 128u);
  EXPECT_EQ(sw.stats().replications, 3u * 128u);
}

TEST(HotPathAlloc, WarmSoftwareFanOutIsAllocationFree) {
  // A group past the ASIC's mroute capacity fans out on the software path:
  // one deferred event per frame, whose egress list comes from the switch's
  // pooled lists. Bursts keep several fan-outs pending at once.
  sim::Engine engine;
  net::Fabric fabric{engine};
  l2::CommoditySwitch sw{engine, "sw",
                         l2::CommoditySwitchConfig{.port_count = 4, .mroute_hardware_capacity = 1}};
  net::Nic source{engine, "src", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  fabric.connect(sw, 0, source, 0, net::LinkConfig{});
  const net::Ipv4Addr group{239, 1, 1, 2};
  sw.join_group(net::Ipv4Addr{239, 1, 1, 1}, 1);  // fills the hardware table
  std::vector<std::unique_ptr<net::Nic>> receivers;
  std::uint64_t delivered = 0;
  for (std::uint32_t r = 2; r <= 3; ++r) {
    receivers.push_back(std::make_unique<net::Nic>(engine, "rx" + std::to_string(r),
                                                   net::MacAddr::from_host_id(r + 1),
                                                   net::Ipv4Addr{10, 0, 0, static_cast<std::uint8_t>(r + 1)}));
    fabric.connect(sw, r, *receivers.back(), 0, net::LinkConfig{});
    receivers.back()->subscribe_multicast_mac(net::multicast_mac(group));
    receivers.back()->set_rx_handler(
        [&delivered](const net::PacketPtr&, sim::Time) { ++delivered; });
    sw.join_group(group, r);
  }
  ASSERT_TRUE(sw.mroutes().overflowed());
  const std::array<std::byte, 18> payload{};
  const auto frame = net::build_multicast_frame(source.mac(), source.ip(), group, 30001,
                                                std::span<const std::byte>{payload});
  auto send_bursts = [&](int count) {
    for (int i = 0; i < count; ++i) {
      for (int k = 0; k < 4; ++k) source.send_frame(std::span<const std::byte>{frame});
      engine.run();
    }
  };
  send_bursts(16);  // warm: pooled fan-out lists, packet pools, engine heap
  ASSERT_EQ(delivered, 2u * 64u);

  const std::uint64_t before = allocations();
  send_bursts(16);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm software-path multicast fan-outs must not touch the heap";
  EXPECT_EQ(delivered, 2u * 128u);
  EXPECT_EQ(sw.stats().multicast_sw_forwarded, 128u);
}

TEST(HotPathAlloc, WarmUnicastSwitchHopIsAllocationFree) {
  // The switch's pipeline is one event at arrival + 500 ns whose capture
  // (switch, packet, port, arrival) stays inline (test_sim_action.cpp); it
  // routes, rewrites the destination MAC through the switch's scratch
  // buffer and pooled factory, and transmits.
  sim::Engine engine;
  net::Fabric fabric{engine};
  l2::CommoditySwitch sw{engine, "sw", l2::CommoditySwitchConfig{.port_count = 2}};
  net::Nic a{engine, "a", net::MacAddr::from_host_id(1), net::Ipv4Addr{10, 0, 0, 1}};
  net::Nic b{engine, "b", net::MacAddr::from_host_id(2), net::Ipv4Addr{10, 0, 0, 2}};
  fabric.connect(sw, 0, a, 0, net::LinkConfig{});
  fabric.connect(sw, 1, b, 0, net::LinkConfig{});
  sw.bind_host(b.ip(), b.mac(), 1);
  std::uint64_t delivered = 0;
  b.set_rx_handler([&delivered](const net::PacketPtr&, sim::Time) { ++delivered; });
  // Addressed to the switch's MAC, not b's: the last hop rewrites it.
  const std::array<std::byte, 18> payload{};
  const auto frame = net::build_udp_frame(a.mac(), net::MacAddr::from_host_id(0xfe), a.ip(),
                                          b.ip(), 6'000, 7'000,
                                          std::span<const std::byte>{payload});
  auto send_batch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      a.send_frame(std::span<const std::byte>{frame});
      engine.run();
    }
  };
  send_batch(64);  // warm: pools, rewrite scratch, engine heap, link path
  ASSERT_EQ(delivered, 64u);

  const std::uint64_t before = allocations();
  send_batch(64);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm NIC -> switch (MAC rewrite) -> NIC unicast hop must not touch the heap";
  EXPECT_EQ(delivered, 128u);
  EXPECT_EQ(sw.stats().unicast_forwarded, 128u);
}

TEST(HotPathAlloc, WarmBookUpdateMixIsAllocationFree) {
  // The SoA book contract: with reserved slabs (or after organic growth),
  // submit/cancel/reduce/replace — including matching — never allocate.
  // CacheAlignedAllocator goes through aligned operator new, so slab growth
  // IS counted here; reserve() must front-load all of it.
  book::OrderBook book{proto::Symbol{"ACME"}};
  book.reserve(4'096, 256);
  proto::OrderId id = 1;
  auto churn = [&book, &id](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto side = (id & 1) != 0 ? proto::Side::kBuy : proto::Side::kSell;
      const auto price = (side == proto::Side::kBuy ? 9'000 : 14'200) +
                         static_cast<proto::Price>(i % 50) * 100;
      book.submit({id, side, price, 100});
      (void)book.reduce(id, 60);
      // Marketable IOC consumes one resting order on the opposite side.
      const auto best = book.best();
      if (side == proto::Side::kBuy && best.ask_price) {
        (void)book.submit({id + 1'000'000, proto::Side::kBuy, *best.ask_price, 60}, true);
      }
      if (id > 64) (void)book.cancel(id - 64);
      ++id;
    }
  };
  churn(512);  // warm: index growth, level ladder, freelists
  const std::uint64_t before = allocations();
  churn(2'048);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm SoA book updates must not touch the heap";
  EXPECT_GT(book.executions(), 0u);
}

TEST(HotPathAlloc, WarmSessionStoreCycleIsAllocationFree) {
  // The pooled session store's contract (DESIGN.md "Session scale-out"):
  // with reserve() front-loading the slabs, indexes and journal arena, the
  // per-session cycle — lookup, order register/close with dedupe, journal
  // stage + group flush, replay and flap (unbind/bind) — is allocation-free.
  exchange::SessionStore store{exchange::SessionStoreConfig{.shards = 16}};
  store.reserve(1'024, 8'192, std::size_t{1} << 20);

  constexpr std::uint32_t kPop = 256;
  constexpr std::uint32_t kBase = 7'000'000;
  std::uint64_t next_client = 1;
  std::uint64_t next_exch = 1;
  std::uint32_t next_conn = 1;
  std::vector<std::uint32_t> tx(kPop, 0);
  std::vector<proto::OrderId> scratch;
  std::array<std::byte, 24> payload{};
  payload.fill(std::byte{0x5a});
  std::uint64_t replayed = 0;

  const auto token_of = [](std::uint32_t s) { return 0xfeedULL + s; };
  for (std::uint32_t s = 0; s < kPop; ++s) {
    const auto result = store.login(kBase + s, token_of(s));
    store.bind(result.slot, next_conn++);
  }

  auto churn = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (std::uint32_t s = 0; s < kPop; ++s) {
        const std::uint32_t slot = store.lookup(kBase + s);
        // Register one fresh order (plus a duplicate probe) and retire it.
        const proto::OrderId client_id = next_client++;
        ASSERT_EQ(store.register_order(slot, client_id, next_exch++, 0),
                  exchange::OrderVerdict::kAccepted);
        ASSERT_EQ(store.register_order(slot, client_id, next_exch, 0),
                  exchange::OrderVerdict::kDuplicateClientId);
        store.collect_open_client_ids(slot, scratch);
        store.close_order(store.find_open(slot, client_id));
        // Stage a sequenced send; every eighth session group-flushes.
        store.journal_stage(slot, ++tx[s], payload);
        if (s % 8 == 7) store.journal_flush();
        // Flap: drop the connection, come back, replay the tail.
        if (s % 16 == static_cast<std::uint32_t>(round) % 16) {
          store.unbind(slot);
          store.bind(slot, next_conn++);
          store.replay(slot, tx[s] > 2 ? tx[s] - 2 : 0,
                       [&replayed](std::uint32_t, std::span<const std::byte>) {
                         ++replayed;
                       });
        }
      }
      store.journal_flush();
    }
  };
  churn(4);  // warm: freelists, staging ring, scratch capacities

  const std::uint64_t before = allocations();
  churn(8);
  EXPECT_EQ(allocations() - before, 0u)
      << "warm session order/journal/replay/flap cycles must not touch the heap";
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(store.session_count(), kPop);
}

TEST(HotPathAlloc, WarmBatchDecodeIsAllocationFree) {
  // decode_batch into a reused DecodedBatch: columns keep their capacity, so
  // a warm decode of the same-shaped datagram is pure loads and stores.
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
  for (int i = 0; i < 30; ++i) {
    add.order_id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{add});
  }
  proto::pitch::DeleteOrder del;
  for (int i = 0; i < 20; ++i) {
    del.order_id = static_cast<proto::OrderId>(i + 1);
    builder.append(proto::pitch::Message{del});
  }
  builder.flush();
  proto::pitch::DecodedBatch batch;
  ASSERT_TRUE(proto::pitch::decode_batch(payload, batch));  // warm: column growth
  ASSERT_EQ(batch.count, 50u);

  const std::uint64_t before = allocations();
  for (int i = 0; i < 4'096; ++i) {
    ASSERT_TRUE(proto::pitch::decode_batch(payload, batch));
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "warm batch decode must reuse the SoA columns without heap traffic";
  EXPECT_EQ(batch.count, 50u);
}

TEST(HotPathAlloc, WarmNormalizerDatagramAllocatesOnlyFrameBuffers) {
  // One feed datagram of adds, executes and deletes over two symbols goes
  // NIC -> normalizer -> one NORM datagram per touched output partition.
  // The books, the id index, the decode columns and the NORM builders are
  // warm after the first datagram; what remains is the heap payload of each
  // frame longer than Packet::kInlineCapacity put on a link: the input frame
  // and each NORM datagram.
  const proto::Symbol acme{"ACME"};
  const proto::Symbol widget{"WIDGET"};
  const auto partitioning = std::make_shared<proto::HashPartition>(4);
  ASSERT_NE(partitioning->partition_of(acme, proto::InstrumentKind::kEquity),
            partitioning->partition_of(widget, proto::InstrumentKind::kEquity));
  sim::Engine engine;
  net::Fabric fabric{engine};
  trading::NormalizerConfig config;
  config.feed_groups = {net::Ipv4Addr{239, 100, 0, 0}};
  config.partitioning = partitioning;
  config.in_mac = net::MacAddr::from_host_id(300);
  config.in_ip = net::Ipv4Addr{10, 1, 0, 1};
  config.out_mac = net::MacAddr::from_host_id(301);
  config.out_ip = net::Ipv4Addr{10, 1, 0, 2};
  trading::Normalizer normalizer{engine, config};
  net::Nic source{engine, "exch", net::MacAddr::from_host_id(310), net::Ipv4Addr{10, 2, 0, 1}};
  net::Nic collector{engine, "collector", net::MacAddr::from_host_id(311),
                     net::Ipv4Addr{10, 2, 0, 2}};
  fabric.connect(source, 0, normalizer.in_nic(), 0, net::LinkConfig{});
  fabric.connect(normalizer.out_nic(), 0, collector, 0, net::LinkConfig{});
  collector.set_promiscuous(true);
  std::uint64_t norm_frames = 0;
  collector.set_rx_handler([&norm_frames](const net::PacketPtr& packet, sim::Time) {
    if (packet->size_bytes() > net::Packet::kInlineCapacity) ++norm_frames;
  });
  normalizer.join_feeds();
  engine.run();

  // Every datagram reuses the same order ids, so the books and the id
  // index churn through the same slots; only the sequence number moves.
  constexpr int kDatagrams = 48;
  std::vector<std::vector<std::byte>> frames;
  proto::pitch::FrameBuilder feed{0, 1458, [&](std::vector<std::byte> payload,
                                               const proto::pitch::UnitHeader&) {
                                    frames.push_back(net::build_multicast_frame(
                                        source.mac(), source.ip(), net::Ipv4Addr{239, 100, 0, 0},
                                        30001, payload));
                                  }};
  for (int d = 0; d < kDatagrams; ++d) {
    for (proto::OrderId id = 1; id <= 8; ++id) {
      proto::pitch::AddOrder add;
      add.order_id = id;
      add.side = id % 2 == 0 ? proto::Side::kBuy : proto::Side::kSell;
      add.symbol = id <= 4 ? acme : widget;
      add.price = (add.side == proto::Side::kBuy ? 9'000 : 9'100) + static_cast<proto::Price>(id);
      add.quantity = 100;
      feed.append(proto::pitch::Message{add});
    }
    for (proto::OrderId id = 1; id <= 8; id += 2) {
      feed.append(proto::pitch::Message{proto::pitch::OrderExecuted{0, id, 40, id}});
    }
    for (proto::OrderId id = 1; id <= 8; ++id) {
      feed.append(proto::pitch::Message{proto::pitch::DeleteOrder{0, id}});
    }
    feed.flush();
  }
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kDatagrams));
  ASSERT_GT(frames.front().size(), net::Packet::kInlineCapacity);

  auto send = [&](int first, int count) {
    for (int d = first; d < first + count; ++d) {
      source.send_frame(std::span<const std::byte>{frames[static_cast<std::size_t>(d)]});
      engine.run();
    }
  };
  send(0, 16);  // warm: books, id index, decode columns, builders, pools
  ASSERT_EQ(normalizer.stats().messages_in, 16u * 20u);
  ASSERT_EQ(norm_frames, 16u * 2u);

  const std::uint64_t before = allocations();
  send(16, kDatagrams - 16);
  constexpr std::uint64_t kMeasured = kDatagrams - 16;
  EXPECT_EQ(allocations() - before, kMeasured * (1 + 2))
      << "a warm normalizer step allocates only the input frame's and each NORM datagram's "
         "payload";
  EXPECT_EQ(norm_frames, std::uint64_t{kDatagrams} * 2);
  EXPECT_EQ(normalizer.stats().unknown_orders, 0u);
  EXPECT_EQ(normalizer.stats().sequence_gaps, 0u);
  EXPECT_EQ(normalizer.tracked_orders(), 0u);
}

}  // namespace
}  // namespace tsn
