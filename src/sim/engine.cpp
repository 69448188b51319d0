#include "sim/engine.hpp"

#include <utility>

#include "core/check.hpp"

namespace tsn::sim {

// tsn-lint: hotpath
EventHandle Engine::schedule_at(Time at, Action action) {
  if (at < now_) at = now_;
  return queue_.push(at, next_seq_++, std::move(action));
}

// tsn-lint: hotpath
bool Engine::cancel(EventHandle handle) {
  TSN_DCHECK(!handle.valid() || handle.domain() == kMainDomain,
             "cancelling a sharded Domain's handle through a plain Engine");
  if (handle.valid() && handle.domain() != kMainDomain) return false;
  return queue_.cancel(handle);
}

std::uint64_t Engine::run() {
  std::uint64_t count = 0;
  while (queue_.pop_one(now_, fired_)) ++count;
  return count;
}

std::uint64_t Engine::run_until(Time deadline) {
  std::uint64_t count = 0;
  for (;;) {
    const EventQueue::HeapEntry* next = queue_.peek_live();
    if (next == nullptr || next->at > deadline) break;
    if (queue_.pop_one(now_, fired_)) ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

bool Engine::step() { return queue_.pop_one(now_, fired_); }

}  // namespace tsn::sim
