// InlineAction: a move-only `void()` callable with small-buffer inline
// storage, replacing `std::function` on the event-scheduling hot path.
//
// The simulator schedules one callable per event at rates of 500k+ events/s
// (PAPER §3), so the per-event `std::function` heap allocation dominated
// wall-clock before the network models ran at all. Every capture used across
// src/ fits the inline buffer (the largest is a NIC rx deferral: a
// std::function handler + PacketPtr + Time, 56 bytes), so steady-state
// scheduling performs zero heap allocations. Oversized or alignment-exotic
// callables still work — they fall back to a heap-held box — but the
// capture-size budget is part of the hot-path contract (see DESIGN.md
// "Hot-path memory model") and test_hotpath_alloc.cpp enforces it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tsn::sim {

class InlineAction {
 public:
  // Sized for the largest hot-path capture (56 B) with headroom; keeping the
  // whole object at one cache line + ops pointer.
  static constexpr std::size_t kInlineCapacity = 64;

  InlineAction() noexcept = default;

  // Implicit by design: call sites pass lambdas straight to schedule_at().
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  InlineAction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (stores_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineAction(InlineAction&& other) noexcept { move_from(std::move(other)); }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when the stored callable lives in the inline buffer (no heap).
  // tsn-lint: allow(unreached-member) test_sim_action: hot-path captures never reach the heap
  [[nodiscard]] bool stored_inline() const noexcept { return ops_ != nullptr && ops_->inline_stored; }

  // Compile-time predicate tests use to pin the hot-path capture budget.
  template <typename Fn>
  [[nodiscard]] static constexpr bool stores_inline() noexcept {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the callable at `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_stored;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(static_cast<Fn*>(s)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) noexcept { std::launder(static_cast<Fn*>(s))->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (**std::launder(static_cast<Fn**>(s)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(static_cast<Fn**>(src)));
      },
      [](void* s) noexcept { delete *std::launder(static_cast<Fn**>(s)); },
      false,
  };

  void move_from(InlineAction&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace tsn::sim
