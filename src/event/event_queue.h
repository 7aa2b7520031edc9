// Deterministic discrete-event engine.
//
// The paper's authors ran their simulator as real processes exchanging UDP
// (ICP) and TCP (HTTP) traffic between department machines. We replace the
// testbed with a single-threaded event queue: every run is a pure function
// of (trace, configuration), which the property tests depend on.
//
// Determinism requirements baked in:
//  * ties in event time are broken by insertion sequence number, so two
//    events scheduled for the same instant always fire in schedule order;
//  * the queue never consults the wall clock.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace eacache {

/// Callback invoked when an event fires. Receives the simulated firing time.
using EventFn = std::function<void(TimePoint)>;

/// Opaque handle identifying a scheduled (not yet fired) event; used to
/// cancel it. kNoEvent (0) never names a real event.
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time: the firing time of the most recently executed
  /// event (kSimEpoch before any event runs).
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` at the absolute simulated time `at`. Scheduling in the
  /// past is a programming error and throws std::logic_error. Returns a
  /// handle that cancel() accepts until the event fires.
  EventId schedule_at(TimePoint at, EventFn fn);

  /// Schedule `fn` `delay` after the current time.
  EventId schedule_after(Duration delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a scheduled event: it still occupies its heap slot but fires as
  /// a no-op (lazy deletion — the request pipeline cancels ICP timeouts
  /// whose discovery window completed early). Cancelling an already-fired,
  /// already-cancelled or kNoEvent id is a harmless no-op.
  void cancel(EventId id);

  /// Run events until the queue is empty. Returns number of events executed.
  std::uint64_t run();

  /// Run events with firing time <= deadline. Time advances to `deadline`
  /// even if the queue drains earlier. Returns number executed.
  std::uint64_t run_until(TimePoint deadline);

  /// Execute exactly one event if any is pending. Returns false if empty.
  bool step();

  [[nodiscard]] bool empty() const { return heap_.size() == cancelled_.size(); }
  /// Live (uncancelled) events still scheduled.
  [[nodiscard]] std::size_t pending() const { return heap_.size() - cancelled_.size(); }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void fire(Entry entry);
  /// Pop cancelled entries off the top without firing them.
  void skip_cancelled();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  TimePoint now_ = kSimEpoch;
  std::uint64_t next_seq_ = 1;  // 0 is kNoEvent
  std::unordered_set<std::uint64_t> live_;       // scheduled, not yet fired/cancelled
  std::unordered_set<std::uint64_t> cancelled_;  // cancelled, still in heap_
};

/// Recurring event helper: reschedules itself every `period` until cancelled
/// or until the queue drains. Used for the windowed expiration-age rollover
/// and periodic metric snapshots.
class PeriodicEvent {
 public:
  /// `fn` fires first at `first`, then every `period` thereafter, while
  /// `alive` (shared flag) remains true.
  static void start(EventQueue& queue, TimePoint first, Duration period, EventFn fn);
};

}  // namespace eacache
