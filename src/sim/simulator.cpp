#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace pmsb::sim {

namespace {

// Balances hook_->begin_dispatch() even when the event callback throws —
// faults::Deadline legitimately throws DeadlineExceeded through dispatch,
// and an attached Profiler must not be left with an open scope.
class EndDispatchGuard {
 public:
  explicit EndDispatchGuard(DispatchHook* hook) : hook_(hook) {}
  EndDispatchGuard(const EndDispatchGuard&) = delete;
  EndDispatchGuard& operator=(const EndDispatchGuard&) = delete;
  ~EndDispatchGuard() { hook_->end_dispatch(); }

 private:
  DispatchHook* hook_;
};

}  // namespace

bool Simulator::step(TimeNs until) {
  for (;;) {
    const QueueEntry* top = backend_ == QueueBackend::kHeap
                                ? heap_.peek()
                                : calendar_.peek();
    if (top == nullptr) return false;
    if (pool_.slot(top->slot).seq != top->seq) {
      // Tombstone: the event was cancelled (or its slot reused after a
      // purge race — impossible here, but the check subsumes it). Discard.
      if (backend_ == QueueBackend::kHeap) {
        heap_.pop();
      } else {
        calendar_.pop();
      }
      assert(stale_entries_ > 0);
      --stale_entries_;
      continue;
    }
    if (top->time > until) {
      now_ = std::max(now_, until);
      return false;
    }
    const QueueEntry e =
        backend_ == QueueBackend::kHeap ? heap_.pop() : calendar_.pop();
    // Move the callback out and release the slot BEFORE invoking, so
    // re-entrant schedules (which may reuse this very slot) and cancels of
    // this event's own handle from inside the callback are both safe.
    EventCallback fn = std::move(pool_.slot(e.slot).fn);
    pool_.release(e.slot);
    assert(live_events_ > 0);
    --live_events_;
    const TimeNs delta = e.time - now_;
    now_ = e.time;
    ++executed_events_;
    if (hook_ != nullptr) {
      hook_->begin_dispatch(now_, delta);
      EndDispatchGuard guard{hook_};
      fn();
      return true;
    }
    fn();
    return true;
  }
}

void Simulator::run(TimeNs until) {
  stop_requested_ = false;
  while (!stop_requested_ && step(until)) {
  }
  // Drain exit also lands on the horizon: whether the queue emptied before
  // `until` or events remain past it, back-to-back run(t1); run(t2) callers
  // observe now() == t1 in between. stop() exits don't clamp — time stays
  // at the event that requested the stop.
  if (!stop_requested_ && until != kTimeNever && live_events_ == 0 &&
      now_ < until) {
    now_ = until;
  }
}

void Simulator::maybe_compact() {
  const std::size_t depth = queue_depth();
  if (depth < kCompactMinDepth || stale_entries_ * 2 <= depth) return;
  const auto keep = [this](const QueueEntry& e) {
    return pool_.slot(e.slot).seq == e.seq;
  };
  if (backend_ == QueueBackend::kHeap) {
    heap_.compact(keep);
  } else {
    calendar_.compact(keep);
  }
  stale_entries_ = 0;
  ++queue_compactions_;
}

}  // namespace pmsb::sim
