// Per-component wall-time attribution from outside the simulator.
//
// Every component schedules through a `sim::Scheduler&`. A TimedScheduler
// is a facade over the real engine that one component (or one layer of
// components) is built against: it forwards every call, and wraps each
// scheduled action so that the wall time of the callback is charged to the
// facade's layer when the event fires. Discrete events never nest, so a
// callback's wall time is its layer's self time; whatever the run spends
// outside all callbacks is the scheduler's own cost.
//
// The wrapped action is parked in a slot table owned by the facade and the
// engine holds only a 16-byte thunk, so wrapping stays inside the engine's
// inline action buffer (no allocation per event). A facade must outlive the
// engine it forwards to: the engine's pending thunks release their slots
// into it when the engine is destroyed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kFabric, kNormalizer, kStrategy, kGateway, kExchange, kHarness };
inline constexpr std::size_t kLayerCount = 6;

struct LayerLedger {
  std::array<std::uint64_t, kLayerCount> ns{};

  [[nodiscard]] double ns_of(Layer layer) const noexcept {
    return static_cast<double>(ns[static_cast<std::size_t>(layer)]);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t v : ns) total += v;
    return total;
  }
};

class TimedScheduler final : public tsn::sim::Scheduler {
 public:
  TimedScheduler(tsn::sim::Scheduler& inner, LayerLedger& ledger, Layer layer) noexcept
      : inner_(inner), ledger_(ledger), layer_(layer) {}

  [[nodiscard]] tsn::sim::Time now() const noexcept override { return inner_.now(); }
  [[nodiscard]] tsn::sim::DomainId domain_id() const noexcept override {
    return inner_.domain_id();
  }
  bool cancel(tsn::sim::EventHandle handle) override { return inner_.cancel(handle); }

  tsn::sim::EventHandle schedule_at(tsn::sim::Time at, Action action) override {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(parked_.size());
      parked_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Parked& parked = parked_[slot];
    parked.action = std::move(action);
    parked.layer = layer_;
    parked.at = at;
    last_ = slot;
    ++scheduled_;
    return inner_.schedule_at(at, Thunk{this, slot});
  }

  // A source that re-arms itself as the last thing each of its callbacks
  // schedules (MarketActivityDriver does, through its exchange's scheduler)
  // keeps its own layer: the last future event such a callback schedules
  // inherits the callback's layer instead of the facade's.
  void set_rearming_layer(Layer layer) noexcept { rearming_ = layer; }
  // Charges the most recent event scheduled through this facade to `layer`
  // (for a source armed from outside any callback).
  void retag_last(Layer layer) noexcept {
    if (scheduled_ != 0) parked_[last_].layer = layer;
  }

 private:
  struct Parked {
    Action action;
    Layer layer = Layer::kHarness;
    tsn::sim::Time at;
  };

  // What the engine stores: the owner and a slot index. Destroyed unfired
  // (cancelled, or pending when the engine dies) it frees the slot.
  class Thunk {
   public:
    Thunk(TimedScheduler* owner, std::uint32_t slot) noexcept : owner_(owner), slot_(slot) {}
    Thunk(Thunk&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)), slot_(other.slot_) {}
    Thunk(const Thunk&) = delete;
    Thunk& operator=(const Thunk&) = delete;
    Thunk& operator=(Thunk&&) = delete;
    ~Thunk() {
      if (owner_ != nullptr) owner_->release(slot_);
    }
    void operator()() { std::exchange(owner_, nullptr)->fire(slot_); }

   private:
    TimedScheduler* owner_;
    std::uint32_t slot_;
  };

  void release(std::uint32_t slot) noexcept {
    parked_[slot].action.reset();
    free_.push_back(slot);
  }

  void fire(std::uint32_t slot) {
    // Move the action out first: the callback may schedule, which can
    // reuse this slot or grow the table.
    Action action = std::move(parked_[slot].action);
    const Layer layer = parked_[slot].layer;
    free_.push_back(slot);
    const std::uint64_t scheduled_before = scheduled_;
    const auto start = Clock::now();
    action();
    const auto end = Clock::now();
    ledger_.ns[static_cast<std::size_t>(layer)] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
    if (rearming_ == layer && scheduled_ != scheduled_before &&
        parked_[last_].at > inner_.now()) {
      parked_[last_].layer = layer;
    }
  }

  tsn::sim::Scheduler& inner_;
  LayerLedger& ledger_;
  Layer layer_;
  std::optional<Layer> rearming_;
  std::vector<Parked> parked_;
  std::vector<std::uint32_t> free_;
  std::uint32_t last_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace perfbench
