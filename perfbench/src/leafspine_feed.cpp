// leafspine_feed: the Design 1 (§4.1) tick-to-trade stack on the leaf-spine
// fabric, 8 strategies, at a busy-second activity rate.
//
// Untimed parts of a run build the rig through deploy::LeafSpineDeployment.
// The traced run cannot inject facades into the deployment (it owns its
// engine), so it builds a mirror from the same public constructors, each
// component on its layer's TimedScheduler, and checks that the mirror's
// simulated outputs equal the deployment's. A separate capture pass taps the
// exchange feed cable and times the PITCH batch decoder and the
// replay-to-book lane over the recorded datagrams.
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "capture/replay.hpp"
#include "capture/tap.hpp"
#include "deploy/reference.hpp"
#include "net/headers.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tsn;

constexpr std::size_t kStrategies = 8;
constexpr double kEventsPerSecond = 300'000.0;
constexpr sim::Duration kActivity = sim::millis(std::int64_t{200});
constexpr sim::Duration kDrain = sim::millis(std::int64_t{5});

deploy::DeploymentConfig deployment_config(std::uint64_t seed) {
  deploy::DeploymentConfig config;
  config.strategy_count = kStrategies;
  config.events_per_second = kEventsPerSecond;
  config.seed = seed;
  return config;
}

// The activity Deployment::run_bounded drives.
exchange::ActivityConfig activity_config(const deploy::DeploymentConfig& config) {
  exchange::ActivityConfig activity;
  activity.events_per_second = config.events_per_second;
  activity.cross_weight = 0.2;
  return activity;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// The simulated outputs of one run and their fold.
struct FeedOutputs {
  std::uint64_t feed_messages = 0;
  std::uint64_t messages_lost = 0;
  std::uint64_t sequence_gaps = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t orders_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t rejects = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t histogram_samples = 0;
  std::uint64_t digest = 0;

  [[nodiscard]] std::uint64_t attempted() const noexcept { return feed_messages + orders_sent; }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return messages_lost + frames_dropped + (orders_sent - acks);
  }
};

FeedOutputs outputs_of(exchange::Exchange& exch, const trading::Normalizer& norm,
                       const trading::Gateway& gateway,
                       const std::vector<const trading::Strategy*>& strategies,
                       const net::Fabric& fabric) {
  FeedOutputs out;
  Fnv fold;
  const exchange::ExchangeStats& xs = exch.stats();
  out.feed_messages = xs.feed_messages;
  for (const std::uint64_t v : {xs.feed_messages, xs.feed_datagrams, xs.orders_received,
                                xs.orders_accepted, xs.orders_rejected, xs.cancels_received,
                                xs.cancel_rejects, xs.fills_sent, exch.econ_digest()}) {
    fold.mix(v);
  }
  const trading::NormalizerStats& ns = norm.stats();
  out.messages_lost = ns.messages_lost;
  out.sequence_gaps = ns.sequence_gaps;
  for (const std::uint64_t v : {ns.datagrams_in, ns.messages_in, ns.updates_out,
                                ns.datagrams_out, ns.bbo_updates, ns.unknown_orders,
                                ns.sequence_gaps, ns.messages_lost}) {
    fold.mix(v);
  }
  const trading::GatewayStats& gs = gateway.stats();
  fold.mix(gs.orders_forwarded);
  fold.mix(gs.responses_routed);
  for (const trading::Strategy* strategy : strategies) {
    const trading::StrategyStats& ss = strategy->stats();
    out.orders_sent += ss.orders_sent;
    out.acks += ss.acks;
    out.rejects += ss.rejects;
    out.updates_received += ss.updates_received;
    for (const std::uint64_t v : {ss.updates_received, ss.orders_sent, ss.cancels_sent, ss.acks,
                                  ss.rejects, ss.fills, ss.cancel_rejects}) {
      fold.mix(v);
    }
    for (const telemetry::Histogram* h :
         {&strategy->tick_to_trade(), &strategy->order_rtt(), &strategy->feed_path()}) {
      out.histogram_samples += h->count();
      fold.mix(h->count());
      fold.mix(bits_of(h->mean()));
    }
  }
  const net::LinkStats ls = fabric.total_stats();
  out.frames_dropped = ls.frames_dropped_queue + ls.frames_dropped_loss;
  for (const std::uint64_t v : {ls.frames_delivered, ls.frames_dropped_queue,
                                ls.frames_dropped_loss, ls.bytes_delivered}) {
    fold.mix(v);
  }
  fold.mix(static_cast<std::uint64_t>(ls.max_queue_delay.picos()));
  out.digest = fold.hash;
  return out;
}

FeedOutputs outputs_of(deploy::LeafSpineDeployment& deployment) {
  std::vector<const trading::Strategy*> strategies;
  for (std::size_t i = 0; i < deployment.strategy_count(); ++i) {
    strategies.push_back(&deployment.strategy(i));
  }
  return outputs_of(deployment.exchange(), deployment.normalizer(), deployment.gateway(),
                    strategies, deployment.fabric());
}

// The deployment's wiring (deploy/reference.cpp), rebuilt from public
// constructors so each component can sit on its own layer's scheduler.
// With `recorder`, a capture::Tap sits on the exchange feed cable.
class MirrorRig {
 public:
  MirrorRig(const deploy::DeploymentConfig& config, bool traced,
            capture::FrameRecorder* recorder)
      : config_(config), traced_(traced) {
    fabric_ = std::make_unique<net::Fabric>(scheduler_for(Layer::kFabric));
    topo_ = std::make_unique<topo::LeafSpineFabric>(*fabric_,
                                                    deploy::LeafSpineDeployment::default_topo());
    build_apps();
    topo_->attach_host(0, exchange_->feed_nic());
    topo_->attach_host(0, exchange_->order_nic());
    topo_->attach_host(1, normalizer_->in_nic());
    topo_->attach_host(1, normalizer_->out_nic());
    for (auto& strategy : strategies_) {
      topo_->attach_host(2, strategy->md_nic());
      topo_->attach_host(2, strategy->order_nic());
    }
    topo_->attach_host(3, gateway_->client_nic());
    topo_->attach_host(3, gateway_->upstream_nic());
    if (recorder != nullptr) insert_tap(*recorder);
  }
  MirrorRig(const MirrorRig&) = delete;
  MirrorRig& operator=(const MirrorRig&) = delete;

  void start() {
    normalizer_->join_feeds();
    gateway_->start();
    for (auto& strategy : strategies_) strategy->start();
    engine_.run();
    ledger_ = LayerLedger{};
  }

  // Deployment::run_bounded, with the window markers armed first.
  void run_bounded(WindowClock& windows) {
    const sim::Time start = engine_.now();
    windows.arm(engine_, start, start + kActivity + kDrain);
    driver_ = std::make_unique<exchange::MarketActivityDriver>(
        *exchange_, activity_config(config_), config_.seed);
    driver_->run_until(start + kActivity);
    if (traced_) facade(Layer::kExchange).retag_last(Layer::kHarness);
    engine_.run_until(start + kActivity + kDrain);
  }

  [[nodiscard]] FeedOutputs outputs() {
    std::vector<const trading::Strategy*> strategies;
    for (const auto& strategy : strategies_) strategies.push_back(strategy.get());
    return outputs_of(*exchange_, *normalizer_, *gateway_, strategies, *fabric_);
  }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const LayerLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] exchange::Exchange& exch() noexcept { return *exchange_; }
  [[nodiscard]] const trading::Normalizer& normalizer() const noexcept { return *normalizer_; }
  [[nodiscard]] const trading::Gateway& gateway() const noexcept { return *gateway_; }
  [[nodiscard]] const net::Fabric& fabric() const noexcept { return *fabric_; }
  [[nodiscard]] topo::LeafSpineFabric& topology() noexcept { return *topo_; }

 private:
  sim::Scheduler& scheduler_for(Layer layer) {
    if (!traced_) return engine_;
    TimedScheduler*& slot = by_layer_[static_cast<std::size_t>(layer)];
    if (slot == nullptr) slot = &facades_.emplace_back(engine_, ledger_, layer);
    return *slot;
  }
  TimedScheduler& facade(Layer layer) { return *by_layer_[static_cast<std::size_t>(layer)]; }

  // build_apps() of deploy/reference.cpp, host ids and all.
  void build_apps() {
    const auto address = topo::LeafSpineFabric::host_ip;
    auto next_mac = [this] { return net::MacAddr::from_host_id(next_host_id_++); };

    exchange::ExchangeConfig xconfig;
    xconfig.name = "EXCH";
    xconfig.exchange_id = 1;
    for (std::size_t i = 0; i < config_.symbol_count; ++i) {
      xconfig.symbols.push_back(
          {proto::Symbol{"SY" + std::to_string(i)}, proto::InstrumentKind::kEquity,
           proto::price_from_dollars(50.0 + static_cast<double>(i) * 7.0)});
    }
    xconfig.feed_partitioning = std::make_shared<proto::HashPartition>(config_.exchange_units);
    xconfig.feed_mac = next_mac();
    xconfig.feed_ip = address(0, 0);
    xconfig.order_mac = next_mac();
    xconfig.order_ip = address(0, 1);
    exchange_ = std::make_unique<exchange::Exchange>(scheduler_for(Layer::kExchange), xconfig);
    if (traced_) facade(Layer::kExchange).set_rearming_layer(Layer::kHarness);

    trading::NormalizerConfig nconfig;
    nconfig.name = "norm";
    nconfig.exchange_id = 1;
    for (std::uint8_t u = 0; u < exchange_->unit_count(); ++u) {
      nconfig.feed_groups.push_back(exchange_->unit_group(u));
    }
    nconfig.feed_port = xconfig.feed_port;
    nconfig.partitioning = std::make_shared<proto::HashPartition>(config_.norm_partitions);
    nconfig.software_latency = config_.software_latency;
    nconfig.in_mac = next_mac();
    nconfig.in_ip = address(1, 0);
    nconfig.out_mac = next_mac();
    nconfig.out_ip = address(1, 1);
    normalizer_ =
        std::make_unique<trading::Normalizer>(scheduler_for(Layer::kNormalizer), nconfig);

    trading::GatewayConfig gconfig;
    gconfig.name = "gw";
    gconfig.exchange_mac = xconfig.order_mac;
    gconfig.exchange_ip = xconfig.order_ip;
    gconfig.exchange_port = xconfig.order_port;
    gconfig.software_latency = config_.software_latency;
    gconfig.client_mac = next_mac();
    gconfig.client_ip = address(3, 0);
    gconfig.upstream_mac = next_mac();
    gconfig.upstream_ip = address(3, 1);
    gateway_ = std::make_unique<trading::Gateway>(scheduler_for(Layer::kGateway), gconfig);

    for (std::size_t s = 0; s < config_.strategy_count; ++s) {
      trading::StrategyConfig sconfig;
      sconfig.name = "strat" + std::to_string(s);
      for (std::uint32_t p = 0; p < config_.norm_partitions; ++p) {
        sconfig.subscriptions.push_back(normalizer_->partition_group(p));
      }
      sconfig.norm_port = nconfig.out_port;
      sconfig.gateway_mac = gconfig.client_mac;
      sconfig.gateway_ip = gconfig.client_ip;
      sconfig.gateway_port = gconfig.listen_port;
      sconfig.decision_latency = config_.decision_latency;
      sconfig.software_latency = config_.software_latency;
      sconfig.md_mac = next_mac();
      sconfig.md_ip = address(2, 2 * s);
      sconfig.order_mac = next_mac();
      sconfig.order_ip = address(2, 2 * s + 1);
      strategies_.push_back(std::make_unique<trading::MomentumTaker>(
          scheduler_for(Layer::kStrategy), sconfig, config_.momentum_tick, 100));
    }
  }

  // Re-points the exchange feed NIC's egress through a tap into the leaf
  // port attach_host gave it (the first host port of rack 0). The tap adds
  // one cable to the feed path, which is why the capture pass is a run of
  // its own.
  void insert_tap(capture::FrameRecorder& recorder) {
    tap_ = std::make_unique<capture::Tap>(engine_, "feed-tap");
    tap_->set_packet_hook(
        [&recorder](const net::PacketPtr& packet, net::PortId port, sim::Time at) {
          if (port == 0) recorder.record(packet, at);
        });
    const net::LinkConfig& cable = topo_->config().host_link;
    fabric_->connect(exchange_->feed_nic(), 0, *tap_, 0, cable);
    const auto leaf_port = static_cast<net::PortId>(topo_->config().spine_count);
    tap_->attach_port(1, fabric_->make_link("feed-tap->leaf0", cable, topo_->leaf(0), leaf_port));
  }

  deploy::DeploymentConfig config_;
  bool traced_;
  LayerLedger ledger_;
  // Declared before the engine: they must outlive its pending thunks.
  std::deque<TimedScheduler> facades_;
  std::array<TimedScheduler*, kLayerCount> by_layer_{};
  sim::Engine engine_;
  std::uint32_t next_host_id_ = 5000;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<topo::LeafSpineFabric> topo_;
  std::unique_ptr<exchange::Exchange> exchange_;
  std::unique_ptr<trading::Normalizer> normalizer_;
  std::unique_ptr<trading::Gateway> gateway_;
  std::vector<std::unique_ptr<trading::MomentumTaker>> strategies_;
  std::unique_ptr<capture::Tap> tap_;
  std::unique_ptr<exchange::MarketActivityDriver> driver_;
};

// One untimed-layer repetition through the deployment itself.
struct UntracedRep {
  double setup_s = 0.0;
  double span_s = 0.0;
  std::vector<double> window_us;
  FeedOutputs outputs;
};

UntracedRep run_deployment(const deploy::DeploymentConfig& config) {
  UntracedRep rep;
  WindowClock windows;
  const auto setup_start = Clock::now();
  deploy::LeafSpineDeployment deployment{config};
  deployment.start();
  const auto span_start = Clock::now();
  const sim::Time start = deployment.engine().now();
  windows.arm(deployment.engine(), start, start + kActivity + kDrain);
  deployment.run_bounded(kActivity, kDrain);
  const auto span_end = Clock::now();
  rep.setup_s = seconds_between(setup_start, span_start);
  rep.span_s = seconds_between(span_start, span_end);
  rep.window_us = windows.window_us();
  rep.outputs = outputs_of(deployment);
  return rep;
}

void check_outputs(Result& result, const FeedOutputs& out, const FeedOutputs& first) {
  result.check(out.sequence_gaps == 0 && out.messages_lost == 0, "leafspine_feed: sequence gap");
  result.check(out.frames_dropped == 0, "leafspine_feed: fabric dropped frames");
  result.check(out.orders_sent > 0 && out.acks + out.rejects == out.orders_sent,
               "leafspine_feed: an order was neither acked nor rejected by the end of the drain");
  result.check(out.digest == first.digest, "leafspine_feed: outputs differ between repetitions");
}

// Per-layer rows of one traced repetition.
std::vector<Metric> layer_rows(MirrorRig& rig, double span_s, std::uint64_t events,
                               std::uint64_t markers) {
  const LayerLedger& ledger = rig.ledger();
  const FeedOutputs out = rig.outputs();
  const std::uint64_t msgs = out.feed_messages;
  const double span_ns = span_s * 1e9;
  std::vector<Metric> rows;
  const auto row = [&rows](const char* name, double value, const char* unit) {
    rows.push_back({name, value, unit});
  };
  row("sim.events_per_msg", per(static_cast<double>(events - markers), msgs), "events/msg");
  row("sim.sched_ns_per_event", per(span_ns - static_cast<double>(ledger.total_ns()), events),
      "ns");
  row("fabric.ns_per_msg", per(ledger.ns_of(Layer::kFabric), msgs), "ns");
  row("fabric.share", ledger.ns_of(Layer::kFabric) / span_ns, "ratio");

  const net::LinkStats links = rig.fabric().total_stats();
  row("net.frames_per_msg", per(static_cast<double>(links.frames_delivered), msgs), "frames/msg");
  row("net.bytes_per_msg", per(static_cast<double>(links.bytes_delivered), msgs), "B/msg");
  row("net.max_queue_delay_ns", links.max_queue_delay.nanos(), "ns");
  row("net.frames_dropped",
      static_cast<double>(links.frames_dropped_queue + links.frames_dropped_loss), "count");

  std::uint64_t replications = 0;
  std::uint64_t hw = 0;
  std::uint64_t sw = 0;
  auto& topo = rig.topology();
  for (std::size_t i = 0; i < topo.leaf_count() + topo.spine_count(); ++i) {
    const l2::SwitchStats& s =
        (i < topo.leaf_count() ? topo.leaf(i) : topo.spine(i - topo.leaf_count())).stats();
    replications += s.replications;
    hw += s.multicast_hw_forwarded;
    sw += s.multicast_sw_forwarded;
  }
  row("l2.replications_per_msg", per(static_cast<double>(replications), msgs), "copies/msg");
  row("l2.sw_forwarded_share", per(static_cast<double>(sw), hw + sw), "ratio");

  const trading::NormalizerStats& ns = rig.normalizer().stats();
  row("trading.normalizer.ns_per_msg", per(ledger.ns_of(Layer::kNormalizer), ns.messages_in),
      "ns");
  row("trading.normalizer.updates_per_msg", per(static_cast<double>(ns.updates_out), ns.messages_in),
      "updates/msg");
  row("trading.strategy.ns_per_update", per(ledger.ns_of(Layer::kStrategy), out.updates_received),
      "ns");
  row("trading.gateway.ns_per_order",
      per(ledger.ns_of(Layer::kGateway), rig.gateway().stats().orders_forwarded), "ns");

  exchange::Exchange& exch = rig.exch();
  const exchange::ExchangeStats& xs = exch.stats();
  row("exchange.ns_per_msg", per(ledger.ns_of(Layer::kExchange), msgs), "ns");
  row("exchange.share", ledger.ns_of(Layer::kExchange) / span_ns, "ratio");
  row("exchange.feed_msgs_per_datagram",
      per(static_cast<double>(xs.feed_messages), xs.feed_datagrams), "msgs/datagram");
  const exchange::SessionStoreStats& store = exch.session_store().stats();
  row("exchange.journal_appends_per_flush",
      per(static_cast<double>(store.journal_appends), store.journal_flushes), "appends/flush");
  row("exchange.replayed_messages", static_cast<double>(xs.replayed_messages), "count");
  row("exchange.cod_orders_cancelled", static_cast<double>(xs.cod_orders_cancelled), "count");
  std::uint64_t resting = 0;
  for (const exchange::SymbolSpec& spec : exch.symbols()) resting += exch.book(spec.symbol).open_orders();
  row("book.resting_orders", static_cast<double>(resting), "count");

  row("harness.ns_per_msg", per(ledger.ns_of(Layer::kHarness), msgs), "ns");
  row("harness.share", ledger.ns_of(Layer::kHarness) / span_ns, "ratio");
  row("telemetry.histogram_samples", static_cast<double>(out.histogram_samples), "count");
  return rows;
}

// The capture pass: record the feed datagrams of one run off a tap on the
// exchange feed cable, then time the PITCH batch decoder and the
// replay-to-book lane over them.
struct CodecTiming {
  double decode_ns_per_msg = 0.0;
  double apply_ns_per_msg = 0.0;
};

CodecTiming time_codec(const deploy::DeploymentConfig& config, Result& result) {
  capture::FrameRecorder recorder;
  std::uint64_t published = 0;
  {
    WindowClock windows;
    MirrorRig rig{config, false, &recorder};
    rig.start();
    rig.run_bounded(windows);
    published = rig.exch().stats().feed_messages;
  }
  std::vector<std::vector<std::byte>> payloads;
  for (const capture::RecordedFrame& frame : recorder.frames()) {
    const auto decoded = net::decode_frame(frame.frame);
    if (decoded && decoded->is_udp()) {
      payloads.emplace_back(decoded->payload.begin(), decoded->payload.end());
    }
  }

  // Decoder: every recorded datagram, repeatedly.
  proto::pitch::DecodedBatch batch;
  std::uint64_t decoded_msgs = 0;
  bool all_parsed = true;
  std::vector<double> decode_ns;
  for (int pass = 0; pass < 7; ++pass) {
    decoded_msgs = 0;
    const auto start = Clock::now();
    for (const auto& payload : payloads) {
      all_parsed = proto::pitch::decode_batch(payload, batch) && all_parsed;
      decoded_msgs += batch.count;
    }
    decode_ns.push_back(seconds_between(start, Clock::now()) * 1e9 /
                        static_cast<double>(decoded_msgs));
  }
  result.check(all_parsed && decoded_msgs == published,
               "leafspine_feed: capture pass did not record every feed message");

  // Replay-to-book: BookReplayer holds one book, and datagrams mix symbols,
  // so each single-symbol datagram goes to its symbol's replayer (order ids
  // resolved from the adds, outside the timing); mixed ones are skipped.
  std::map<proto::OrderId, proto::Symbol> symbol_of;
  std::vector<std::pair<std::size_t, proto::Symbol>> routed;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    (void)proto::pitch::decode_batch(payloads[i], batch);
    std::set<proto::Symbol> symbols;
    for (std::size_t r = 0; r < batch.count; ++r) {
      if (batch.kind[r] == proto::pitch::DecodedKind::kAddOrder) {
        symbol_of[batch.order_id[r]] = batch.symbol[r];
        symbols.insert(batch.symbol[r]);
      } else if (batch.kind[r] == proto::pitch::DecodedKind::kTrade) {
        symbols.insert(batch.symbol[r]);
      } else if (batch.kind[r] != proto::pitch::DecodedKind::kTime) {
        const auto it = symbol_of.find(batch.order_id[r]);
        if (it != symbol_of.end()) symbols.insert(it->second);
      }
    }
    if (symbols.size() == 1) routed.emplace_back(i, *symbols.begin());
  }
  struct SymbolBook {
    explicit SymbolBook(proto::Symbol symbol) : book(symbol) {}
    book::OrderBook book;
    capture::BookReplayer replayer{book};
  };
  std::vector<double> apply_ns;
  for (int pass = 0; pass < 7; ++pass) {
    std::map<proto::Symbol, std::unique_ptr<SymbolBook>> books;
    std::vector<capture::BookReplayer*> target;
    for (const auto& [index, symbol] : routed) {
      auto& entry = books[symbol];
      if (!entry) entry = std::make_unique<SymbolBook>(symbol);
      target.push_back(&entry->replayer);
    }
    const auto start = Clock::now();
    for (std::size_t k = 0; k < routed.size(); ++k) {
      (void)target[k]->replay_payload(payloads[routed[k].first]);
    }
    const double elapsed_ns = seconds_between(start, Clock::now()) * 1e9;
    std::uint64_t messages = 0;
    for (const auto& [symbol, entry] : books) messages += entry->replayer.stats().messages;
    apply_ns.push_back(elapsed_ns / static_cast<double>(messages));
  }
  std::printf("capture pass: %zu datagrams, %llu messages; %zu single-symbol datagrams replayed\n",
              payloads.size(), static_cast<unsigned long long>(decoded_msgs), routed.size());
  return {median(decode_ns), median(apply_ns)};
}

}  // namespace

Result run_leafspine_feed(const Options& options) {
  Result result;
  const deploy::DeploymentConfig config = deployment_config(options.seed);

  if (!options.trace) {
    TimedReps reps;
    FeedOutputs first;
    repeat_for(options.seconds, 3, [&](std::size_t i) {
      const UntracedRep rep = run_deployment(config);
      if (i == 0) first = rep.outputs;
      check_outputs(result, rep.outputs, first);
      reps.add(rep.setup_s, static_cast<double>(rep.outputs.feed_messages), rep.span_s,
               rep.window_us);
    });
    result.attempted = first.attempted();
    result.failed = first.failed();
    std::printf("leafspine_feed: %llu feed messages, %llu orders sent, %llu acked per rep\n",
                static_cast<unsigned long long>(first.feed_messages),
                static_cast<unsigned long long>(first.orders_sent),
                static_cast<unsigned long long>(first.acks));
    reps.report(result);
    return result;
  }

  // Traced: alternate untraced deployment reps and traced mirror reps.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::vector<Metric>> layer_reps;
  FeedOutputs first;
  repeat_for(options.seconds, 2, [&](std::size_t i) {
    const UntracedRep untraced = run_deployment(config);
    if (i == 0) first = untraced.outputs;
    check_outputs(result, untraced.outputs, first);
    untraced_s.push_back(untraced.span_s);

    WindowClock windows;
    MirrorRig rig{config, true, nullptr};
    rig.start();
    const std::uint64_t events_before = rig.engine().events_fired();
    const auto start = Clock::now();
    rig.run_bounded(windows);
    const double span_s = seconds_between(start, Clock::now());
    traced_s.push_back(span_s);
    result.check(rig.outputs().digest == first.digest,
                 "leafspine_feed: traced mirror outputs differ from the deployment's");
    layer_reps.push_back(
        layer_rows(rig, span_s, rig.engine().events_fired() - events_before, windows.markers()));
  });
  result.attempted = first.attempted();
  result.failed = first.failed();
  for (Metric& row : median_rows(layer_reps)) result.metrics.push_back(std::move(row));
  const CodecTiming codec = time_codec(config, result);
  result.metric("proto.pitch_decode_ns_per_msg", codec.decode_ns_per_msg, "ns");
  result.metric("book.apply_ns_per_msg", codec.apply_ns_per_msg, "ns");
  result.metric("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
