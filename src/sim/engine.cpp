#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

namespace alsflow::sim {

EventId Engine::schedule_at(Seconds t, std::function<void()> fn) {
  t = std::max(t, now_);
  EventId id = next_id_++;
  queue_.push(Entry{t, id});
  handlers_.emplace(id, std::move(fn));
  return id;
}

EventId Engine::schedule_in(Seconds dt, std::function<void()> fn) {
  return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
}

bool Engine::cancel(EventId id) { return handlers_.erase(id) > 0; }

bool Engine::step() {
  while (!queue_.empty()) {
    Entry e = queue_.top();
    queue_.pop();
    auto it = handlers_.find(e.id);
    if (it == handlers_.end()) continue;  // cancelled tombstone
    assert(e.time >= now_);
    now_ = e.time;
    // Move the handler out before invoking: the handler may schedule or
    // cancel other events (invalidating iterators) or re-enter the engine.
    std::function<void()> fn = std::move(it->second);
    handlers_.erase(it);
    ++executed_;
    fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Seconds t) {
  while (!queue_.empty()) {
    // Skip over tombstones to find the real next event time.
    Entry e = queue_.top();
    if (handlers_.find(e.id) == handlers_.end()) {
      queue_.pop();
      continue;
    }
    if (e.time > t) break;
    step();
  }
  now_ = std::max(now_, t);
}

}  // namespace alsflow::sim
