// Discrete-event simulation engine.
//
// A single `Engine` owns the simulated clock and an event queue. Components
// schedule callbacks at absolute or relative times; ties are broken by
// insertion order, which makes every run fully deterministic for a given
// seed and schedule of calls.
//
// In-order lanes keep the heap shallow. Many event streams are monotone by
// construction: a FIFO `Resource`'s completion ticks never decrease, so the
// continuations it schedules (plus a constant offset) arrive in tick order.
// A component that owns such a stream asks for a `Lane` once and schedules
// into it; the engine keeps the lane as a FIFO and only its head in the
// heap. Every event keeps the sequence number it got at schedule time, so
// the run order is exactly the (tick, seq) order of plain scheduling — a
// lane changes host cost, never simulated results. An insert earlier than
// the lane's tail falls back to the heap (counted by lane_fallbacks()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace herd::sim {

/// Handle of an engine-owned in-order lane (see Engine::new_lane()).
struct Lane {
  std::uint32_t id;
};

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Tick now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (>= now()).
  void schedule_at(Tick t, Callback cb);

  /// As schedule_at(t, cb), through `lane`: callers pass non-decreasing
  /// ticks per lane. A tick below the lane's tail is still run in order,
  /// via the heap.
  void schedule_at(Tick t, Lane lane, Callback cb);

  /// Schedules `cb` to run `delay` ticks from now.
  void schedule_after(Tick delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Creates a lane. The engine owns it for its own lifetime, so a
  /// component destroyed first leaves no dangling lane behind.
  Lane new_lane();

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= `t`, then sets now() = t.
  /// Returns the number of events processed.
  std::uint64_t run_until(Tick t);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step();

  bool empty() const { return heap_.empty(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Total events ever scheduled. Together with events_processed() and
  /// now(), a cheap run fingerprint: two runs of the same deterministic
  /// schedule agree on all three (chaos replay asserts this).
  std::uint64_t events_scheduled() const { return next_seq_; }

  /// Entries in the heap: plain events plus one head per non-empty lane.
  std::size_t heap_entries() const { return heap_.size(); }

  /// Lane inserts that fell back to the heap (tick below the lane's tail).
  std::uint64_t lane_fallbacks() const { return lane_fallbacks_; }

 private:
  static constexpr std::uint32_t kNoLane =
      std::numeric_limits<std::uint32_t>::max();

  /// A heap entry: a plain event (lane == kNoLane) or a lane's head.
  struct Entry {
    Tick t;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t lane;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  /// An event waiting behind its lane's head, in schedule order.
  struct LaneItem {
    Tick t;
    std::uint64_t seq;
    Callback cb;
  };
  struct LaneQueue {
    LaneQueue() = default;
    // std::deque's move allocates a map for the moved-from side, so it is
    // not noexcept; declaring it so lets lanes_ relocate by moving lanes
    // instead of copying their callbacks (out of memory is fatal anyway).
    LaneQueue(LaneQueue&&) noexcept = default;
    bool head_queued = false;  // the lane's head is in the heap
    Tick tail = 0;             // tick of the lane's last event
    std::deque<LaneItem> behind;
  };

  void push_entry(Entry e);
  /// Removes the earliest event; if it headed a lane, the lane's next
  /// event takes its place in the heap.
  Entry pop_next();
  void dispatch(Entry e);

  std::vector<Entry> heap_;  // binary min-heap under Later
  std::vector<LaneQueue> lanes_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t lane_fallbacks_ = 0;
};

}  // namespace herd::sim
