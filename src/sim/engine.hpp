// Discrete-event simulation engine.
//
// Single-threaded event queue over simulated time (Seconds since world
// start). All facility behaviour in alsflow — queue waits, transfer
// durations, scheduled pruning, flow orchestration — executes as events on
// one Engine, making every experiment deterministic and allowing a full
// production day to simulate in milliseconds.
//
// Events scheduled for the same timestamp run in insertion order (stable):
// ids are handed out in increasing order and break time ties, which keeps
// causality intuitive: "schedule A then B at t" runs A first.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "common/units.hpp"

namespace alsflow::sim {

using EventId = std::uint64_t;

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Seconds now() const { return now_; }

  // Schedule `fn` at absolute simulated time `t` (clamped to now()).
  EventId schedule_at(Seconds t, std::function<void()> fn);
  // Schedule `fn` after a relative delay (clamped to 0).
  EventId schedule_in(Seconds dt, std::function<void()> fn);

  // Cancel a pending event. Returns false if it already ran or never existed.
  bool cancel(EventId id);

  // Execute the next pending event; returns false when the queue is empty.
  bool step();

  // Run until the queue drains.
  void run();

  // Run events with time <= t, then set now() = t (even if queue nonempty).
  void run_until(Seconds t);

  std::size_t pending_events() const { return handlers_.size(); }

  // Total events executed (for diagnostics and engine tests).
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    Seconds time;
    EventId id;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return id > o.id;
    }
  };

  Seconds now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  // Cancelling removes the handler; the queue entry becomes a tombstone that
  // is skipped when popped.
  std::map<EventId, std::function<void()>> handlers_;
};

}  // namespace alsflow::sim
