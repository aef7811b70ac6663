// The dcnsim discrete-event simulation kernel.
//
// A Simulator owns a priority queue of timestamped events. Components
// schedule callbacks with `schedule_at(t, fn)`; `run()` pops events in
// (time, insertion-sequence) order until the queue drains or a stop
// condition fires. Ties at the same timestamp execute in the order they
// were scheduled, which makes runs bit-for-bit reproducible.
//
// Hot-path design (ROADMAP item 1):
//  - a scheduled callback lives in a generation-tagged slot of a per-
//    Simulator EventPool (slab chunks, LIFO free list, no per-event malloc);
//    the callback type is a 48-byte small-buffer EventCallback, not
//    std::function (see event_callback.hpp);
//  - the queue orders 24-byte QueueEntry{time, seq, slot} records, so sifts
//    move three words and never touch the closure;
//  - schedule/cancel/fire are O(1) bookkeeping (plus the queue op): handle
//    validation is a generation compare against the slot, entry validation a
//    sequence compare — the old pending_/cancelled_ hash sets are gone;
//  - two queue backends are selectable at construction (`sched_queue=` at
//    the CLI): the default binary heap and a calendar queue. Both order
//    entries identically and discard a cancelled entry exactly when it
//    would have been popped, so runs are bit-identical across backends
//    (pmsbregress digests verify this).
//
// The kernel is deliberately single-threaded: datacenter-scale packet
// simulations are dominated by event dispatch, and determinism is worth
// more than parallelism for reproducing paper figures.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "sim/calendar_queue.hpp"
#include "sim/event_callback.hpp"
#include "sim/event_pool.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace pmsb::sim {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Packs (slot generation << 32 | slot index + 1); never 0 for a real event.
using EventId = std::uint64_t;

/// Invalid/empty event handle.
inline constexpr EventId kInvalidEventId = 0;

/// Kernel observation interface for profilers. The simulator calls
/// begin_dispatch()/end_dispatch() around every event callback and
/// on_schedule()/on_cancel() per queue operation — but ONLY while a hook is
/// attached, so the un-instrumented cost is one null check per call site
/// (the same contract as net::PacketObserver). Declared here (not in
/// telemetry/) so the kernel stays free of upward dependencies; the concrete
/// implementation lives in telemetry::Profiler.
class DispatchHook {
 public:
  virtual ~DispatchHook() = default;
  /// About to run an event at simulation time `now`; `delta` is the
  /// sim-time advance since the previous event (0 for same-timestamp ties).
  virtual void begin_dispatch(TimeNs now, TimeNs delta) = 0;
  /// The event callback returned (called even if the callback threw, so
  /// begin/end stay balanced across exceptions).
  virtual void end_dispatch() = 0;
  virtual void on_schedule() = 0;
  virtual void on_cancel() = 0;
};

class Simulator {
 public:
  using Callback = EventCallback;

  explicit Simulator(QueueBackend backend = QueueBackend::kHeap)
      : backend_(backend) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Valid inside and outside event callbacks.
  [[nodiscard]] TimeNs now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (must be >= now()).
  /// Returns a handle that can be passed to `cancel`. Accepts any callable
  /// `void()`; captures up to EventCallback::kInlineBytes stay inline.
  template <typename F>
  EventId schedule_at(TimeNs t, F&& fn) {
    if (t < now_) {
      throw std::invalid_argument(
          "Simulator::schedule_at: time is in the past");
    }
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t idx = pool_.acquire(seq, std::forward<F>(fn));
    const QueueEntry entry{t, seq, idx};
    if (backend_ == QueueBackend::kHeap) {
      heap_.push(entry);
    } else {
      calendar_.push(entry);
    }
    ++live_events_;
    max_heap_depth_ = std::max(max_heap_depth_, queue_depth());
    if (hook_ != nullptr) hook_->on_schedule();
    return (static_cast<EventId>(pool_.generation(idx)) << 32) |
           (static_cast<EventId>(idx) + 1);
  }

  /// Schedules `fn` to run `delay` nanoseconds from now.
  template <typename F>
  EventId schedule_in(TimeNs delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled,
  /// or invalid handle is a true no-op: the handle's generation can only
  /// match a slot whose occupancy it was issued for, so stale handles cannot
  /// corrupt the live-event count or release someone else's event. The
  /// closure is destroyed immediately (captures released now, not at pop);
  /// the queue entry becomes a tombstone that is skipped when popped, and
  /// bulk-purged when tombstones exceed half the queue (see queue_compactions).
  void cancel(EventId id) {
    const auto low = static_cast<std::uint32_t>(id);
    if (low == 0) return;
    const std::uint32_t idx = low - 1;
    if (idx >= pool_.size()) return;
    if (pool_.generation(idx) != static_cast<std::uint32_t>(id >> 32) ||
        pool_.slot(idx).seq == 0) {
      return;
    }
    pool_.release(idx);
    --live_events_;
    ++cancelled_events_;
    ++stale_entries_;
    if (hook_ != nullptr) hook_->on_cancel();
    maybe_compact();
  }

  /// Runs until the event queue is empty or `until` is reached. Events with
  /// timestamp strictly greater than `until` are left unfired. On return,
  /// when `until` is finite, `now()` equals `until` whether the queue
  /// drained first or events remain past the horizon — back-to-back
  /// `run(t1); run(t2)` always observes `now() == t1` between the calls.
  /// (A `stop()` exit leaves `now()` at the last executed event.)
  void run(TimeNs until = kTimeNever);

  /// Executes at most one pending event. Returns false if none remain or
  /// the next event is past `until` (in which case time advances to `until`).
  bool step(TimeNs until = kTimeNever);

  /// Requests that `run()` return after the current event finishes.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool empty() const { return live_events_ == 0; }
  [[nodiscard]] std::size_t pending_events() const { return live_events_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_events_; }
  [[nodiscard]] std::uint64_t cancelled_events() const { return cancelled_events_; }
  /// High-water mark of the event queue (including not-yet-purged cancelled
  /// tombstones) — the kernel's memory pressure signal.
  [[nodiscard]] std::size_t max_heap_depth() const { return max_heap_depth_; }
  /// Current queue depth, live events plus pending tombstones.
  [[nodiscard]] std::size_t queue_depth() const {
    return backend_ == QueueBackend::kHeap ? heap_.size() : calendar_.size();
  }

  /// Which queue backend this simulator was constructed with.
  [[nodiscard]] QueueBackend queue_backend() const { return backend_; }
  /// Times the tombstone purge ran (cancelled entries exceeded half the
  /// queue). Identical across backends for the same schedule/cancel trace.
  [[nodiscard]] std::uint64_t queue_compactions() const {
    return queue_compactions_;
  }

  /// Always false; kept because perfbench's build guard still calls it.
  [[nodiscard]] static constexpr bool dispatch_profiling_enabled() { return false; }

  /// Attaches a dispatch hook (nullptr to detach). The hook must outlive
  /// its attachment; telemetry::Profiler detaches itself on destruction.
  void set_dispatch_hook(DispatchHook* hook) { hook_ = hook; }
  [[nodiscard]] DispatchHook* dispatch_hook() const { return hook_; }

  /// Allocates the next packet id for this run. Packet ids are kernel state
  /// (not process-global) so that every run numbers its packets from 1
  /// regardless of what ran earlier in the process — a prerequisite for
  /// bit-identical repeat runs and for running simulators on multiple
  /// threads.
  [[nodiscard]] std::uint64_t allocate_packet_id() { return ++last_packet_id_; }
  /// Packet ids handed out so far (equals the id of the newest packet).
  [[nodiscard]] std::uint64_t packet_ids_allocated() const { return last_packet_id_; }

 private:
  /// Don't bother purging tombstones out of a tiny queue.
  static constexpr std::size_t kCompactMinDepth = 64;

  /// Purges cancelled tombstones when they exceed half the queue. Cold path;
  /// the trigger depends only on the schedule/cancel trace, so both backends
  /// compact at identical points and depth metrics stay comparable.
  void maybe_compact();

  EventPool pool_;
  HeapEventQueue heap_;
  CalendarQueue calendar_;
  const QueueBackend backend_;
  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;  // 0 is the pool's "slot free" sentinel
  std::uint64_t last_packet_id_ = 0;
  std::size_t live_events_ = 0;
  std::size_t stale_entries_ = 0;  ///< cancelled entries still in the queue
  std::size_t max_heap_depth_ = 0;
  std::uint64_t executed_events_ = 0;
  std::uint64_t cancelled_events_ = 0;
  std::uint64_t queue_compactions_ = 0;
  DispatchHook* hook_ = nullptr;
  bool stop_requested_ = false;
};

}  // namespace pmsb::sim
