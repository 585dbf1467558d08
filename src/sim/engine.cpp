#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace herd::sim {

void Engine::schedule_at(Tick t, Callback cb) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  push_entry(Entry{t, next_seq_++, kNoLane, std::move(cb)});
}

void Engine::schedule_at(Tick t, Lane lane, Callback cb) {
  assert(lane.id < lanes_.size());
  LaneQueue& q = lanes_[lane.id];
  if (q.head_queued && t < q.tail) {
    ++lane_fallbacks_;
    schedule_at(t, std::move(cb));
    return;
  }
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time in the past");
  }
  std::uint64_t seq = next_seq_++;
  q.tail = t;
  if (q.head_queued) {
    q.behind.push_back(LaneItem{t, seq, std::move(cb)});
    return;
  }
  q.head_queued = true;
  push_entry(Entry{t, seq, lane.id, std::move(cb)});
}

Lane Engine::new_lane() {
  lanes_.emplace_back();
  return Lane{static_cast<std::uint32_t>(lanes_.size() - 1)};
}

void Engine::push_entry(Entry e) {
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Engine::Entry Engine::pop_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  if (e.lane != kNoLane) {
    LaneQueue& q = lanes_[e.lane];
    if (q.behind.empty()) {
      q.head_queued = false;
    } else {
      // The next head enters with the seq it was scheduled with.
      LaneItem& next = q.behind.front();
      push_entry(Entry{next.t, next.seq, e.lane, std::move(next.cb)});
      q.behind.pop_front();
    }
  }
  return e;
}

void Engine::dispatch(Entry e) {
  now_ = e.t;
  ++events_processed_;
  e.cb();
}

void Engine::run() {
  while (!heap_.empty()) dispatch(pop_next());
}

std::uint64_t Engine::run_until(Tick t) {
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().t <= t) {
    dispatch(pop_next());
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  dispatch(pop_next());
  return true;
}

}  // namespace herd::sim
