#include "sim/action.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "net/packet.hpp"
#include "proto/boe.hpp"
#include "sim/time.hpp"

namespace tsn::sim {
namespace {

TEST(InlineAction, DefaultConstructedIsEmpty) {
  InlineAction action;
  EXPECT_FALSE(static_cast<bool>(action));
}

TEST(InlineAction, InvokesStoredCallable) {
  int calls = 0;
  InlineAction action{[&calls] { ++calls; }};
  EXPECT_TRUE(static_cast<bool>(action));
  action();
  action();
  EXPECT_EQ(calls, 2);
}

TEST(InlineAction, HotPathCaptureSizesStayInline) {
  // The capture-size contract from DESIGN.md "Hot-path memory model": every
  // scheduling site across src/ must fit the inline buffer. The largest is
  // Exchange::deliver_direct's (the exchange, a connection index and a
  // copied boe::Message), which fills it exactly.
  struct DeliverDirectCapture {
    void* exchange;
    std::uint32_t conn;
    proto::boe::Message message;
  };
  static_assert(sizeof(DeliverDirectCapture) == InlineAction::kInlineCapacity);
  static_assert(InlineAction::stores_inline<DeliverDirectCapture>());

  // The NIC's software hop, folded into the link delivery: the NIC, the
  // frame and its arrival time (24 bytes).
  struct NicDeliveryCapture {
    void* nic;
    net::PacketPtr packet;
    Time arrival;
  };
  static_assert(InlineAction::stores_inline<NicDeliveryCapture>());

  // The commodity switch's pipeline, folded into the link delivery: the
  // switch, the frame, its ingress port and its arrival time (32 bytes).
  struct SwitchPipelineCapture {
    void* sw;
    net::PacketPtr packet;
    std::uint32_t port;
    Time arrival;
  };
  static_assert(sizeof(SwitchPipelineCapture) == 32);
  static_assert(InlineAction::stores_inline<SwitchPipelineCapture>());

  // The commodity switch's software fan-out, deferred to the end of its
  // service time: the switch, the frame, the pooled fan-out list's index
  // and the rx time (32 bytes).
  struct SwitchSoftwareFanoutCapture {
    void* self;
    net::PacketPtr packet;
    std::uint32_t fanout;
    Time rx;
  };
  static_assert(sizeof(SwitchSoftwareFanoutCapture) == 32);
  static_assert(InlineAction::stores_inline<SwitchSoftwareFanoutCapture>());

  struct LinkDeliveryCapture {
    void* dst;
    std::uint32_t port;
    net::PacketPtr packet;
  };
  static_assert(InlineAction::stores_inline<LinkDeliveryCapture>());

  int sink = 0;
  auto* sink_ptr = &sink;
  std::shared_ptr<const int> payload = std::make_shared<int>(7);
  const Time arrival{42};
  InlineAction action{[sink_ptr, payload, arrival] { *sink_ptr += *payload; }};
  EXPECT_TRUE(action.stored_inline());
  action();
  EXPECT_EQ(sink, 7);
}

TEST(InlineAction, OversizedCaptureFallsBackToHeapAndStillWorks) {
  std::array<std::byte, 128> big{};
  big[0] = std::byte{9};
  int sum = 0;
  InlineAction action{[big, &sum] { sum += static_cast<int>(big[0]); }};
  EXPECT_FALSE(action.stored_inline());
  action();
  EXPECT_EQ(sum, 9);
}

TEST(InlineAction, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  InlineAction a{[counter] { ++*counter; }};
  InlineAction b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): post-move state is defined
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(*counter, 1);
  InlineAction c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
}

TEST(InlineAction, DestructionReleasesCapturedState) {
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracked;
  {
    InlineAction action{[tracked] { (void)tracked; }};
    tracked.reset();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineAction, ResetReleasesCapturedState) {
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracked;
  InlineAction action{[tracked] { (void)tracked; }};
  tracked.reset();
  action.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(action));
}

TEST(InlineAction, MoveAssignReplacesAndDestroysPrevious) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  InlineAction action{[first] { (void)first; }};
  first.reset();
  int calls = 0;
  action = InlineAction{[&calls] { ++calls; }};
  EXPECT_TRUE(watch.expired());
  action();
  EXPECT_EQ(calls, 1);
}

TEST(InlineAction, AcceptsCopyableLvalueCallables) {
  int calls = 0;
  std::function<void()> fn = [&calls] { ++calls; };
  InlineAction action{fn};
  fn();  // the original remains usable
  action();
  EXPECT_EQ(calls, 2);
}

TEST(InlineAction, HeapFallbackMovePreservesCallable) {
  std::array<std::byte, 200> big{};
  big[3] = std::byte{5};
  int out = 0;
  InlineAction a{[big, &out] { out = static_cast<int>(big[3]); }};
  InlineAction b{std::move(a)};
  EXPECT_FALSE(b.stored_inline());
  b();
  EXPECT_EQ(out, 5);
}

}  // namespace
}  // namespace tsn::sim
