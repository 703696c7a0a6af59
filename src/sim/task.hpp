// Coroutine process layer over the discrete-event Engine (SimPy-style).
//
// Simulation activities are written as C++20 coroutines returning
// Future<T> (a value) or Proc (no value). Coroutines start eagerly and own
// their own frames; completion is published through a shared state that any
// number of other coroutines can `co_await`.
//
//   Proc acquire_scan(Engine& eng, ...) {
//     co_await delay(eng, 180.0);            // 3-minute acquisition
//     auto result = co_await run_recon(...); // join a child activity
//   }
//
// Rules of the model:
//  * Single-threaded: all coroutines run on the Engine's thread.
//  * Waiters are resumed synchronously, in registration order, when a
//    future resolves. Timed waits go through the Engine.
//  * Suspended coroutine frames are only destroyed by running to
//    completion: run simulations to quiescence (Engine::run()).
//  * Exceptions escaping a simulation coroutine terminate the process;
//    expected failures travel in Result<T> values instead.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace alsflow::sim {

struct Unit {};

[[noreturn]] inline void future_resolved_twice() {
  std::fprintf(stderr, "alsflow: sim future resolved twice\n");
  std::abort();
}

template <typename T>
class SharedState {
 public:
  bool ready() const { return value_.has_value(); }

  const T& value() const {
    assert(ready());
    return *value_;
  }

  void set_value(T v) {
    // Checked in every build type: a second resolution would silently
    // overwrite the value the first waiters already saw. The abort comes
    // after the store, before any waiter runs; testing first trips a false
    // -Wmaybe-uninitialized in GCC 12 on Result<T> moves at -O2.
    const bool twice = ready();
    value_.emplace(std::move(v));
    if (twice) future_resolved_twice();
    // Take the callback list first: a resumed waiter may register new
    // callbacks on other states or re-enter this one via ready().
    std::vector<std::pair<std::uint64_t, std::function<void()>>> cbs;
    cbs.swap(callbacks_);
    for (auto& [token, fn] : cbs) fn();
  }

  std::uint64_t add_callback(std::function<void()> fn) {
    std::uint64_t token = next_token_++;
    callbacks_.emplace_back(token, std::move(fn));
    return token;
  }

  // Callbacks registered and not yet run or removed.
  std::size_t callback_count() const { return callbacks_.size(); }

  void remove_callback(std::uint64_t token) {
    for (auto it = callbacks_.begin(); it != callbacks_.end(); ++it) {
      if (it->first == token) {
        callbacks_.erase(it);
        return;
      }
    }
  }

 private:
  std::optional<T> value_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> callbacks_;
  std::uint64_t next_token_ = 1;
};

template <typename T>
struct StateAwaiter {
  std::shared_ptr<SharedState<T>> state;

  bool await_ready() const { return state->ready(); }
  void await_suspend(std::coroutine_handle<> h) {
    state->add_callback([h] { h.resume(); });
  }
  T await_resume() const { return state->value(); }
};

// A value-producing simulation activity. Eagerly started; awaitable by any
// number of coroutines; the result is copied out to each waiter.
template <typename T>
class [[nodiscard]] Future {
 public:
  struct promise_type {
    std::shared_ptr<SharedState<T>> state = std::make_shared<SharedState<T>>();

    Future get_return_object() { return Future(state); }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        h.destroy();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { state->set_value(std::move(v)); }
    void unhandled_exception() { std::terminate(); }
  };

  explicit Future(std::shared_ptr<SharedState<T>> state)
      : state_(std::move(state)) {}

  bool done() const { return state_->ready(); }
  const T& value() const { return state_->value(); }
  std::shared_ptr<SharedState<T>> state() const { return state_; }

  StateAwaiter<T> operator co_await() const { return StateAwaiter<T>{state_}; }

 private:
  std::shared_ptr<SharedState<T>> state_;
};

// A simulation activity with no result value.
class [[nodiscard]] Proc {
 public:
  struct promise_type {
    std::shared_ptr<SharedState<Unit>> state =
        std::make_shared<SharedState<Unit>>();

    Proc get_return_object() { return Proc(state); }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        h.destroy();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() { state->set_value(Unit{}); }
    void unhandled_exception() { std::terminate(); }
  };

  explicit Proc(std::shared_ptr<SharedState<Unit>> state)
      : state_(std::move(state)) {}

  bool done() const { return state_->ready(); }
  std::shared_ptr<SharedState<Unit>> state() const { return state_; }

  StateAwaiter<Unit> operator co_await() const {
    return StateAwaiter<Unit>{state_};
  }

  // Fire-and-forget: the coroutine frame owns itself; dropping the handle
  // is safe and explicit.
  void detach() const {}

 private:
  std::shared_ptr<SharedState<Unit>> state_;
};

// Suspend the current coroutine for `dt` simulated seconds.
struct DelayAwaiter {
  Engine& eng;
  Seconds dt;

  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    eng.schedule_in(dt, [h] { h.resume(); });
  }
  void await_resume() const {}
};

inline DelayAwaiter delay(Engine& eng, Seconds dt) { return {eng, dt}; }

// One-shot manually-triggered event carrying a value; awaitable like a
// Future. Used for service handshakes (e.g. "acquisition complete").
template <typename T = Unit>
class Event {
 public:
  Event() : state_(std::make_shared<SharedState<T>>()) {}

  bool triggered() const { return state_->ready(); }
  void trigger(T v = T{}) { state_->set_value(std::move(v)); }
  const T& value() const { return state_->value(); }
  std::shared_ptr<SharedState<T>> state() const { return state_; }

  StateAwaiter<T> operator co_await() const { return StateAwaiter<T>{state_}; }

 private:
  std::shared_ptr<SharedState<T>> state_;
};

// Race any number of states against a timer. Resolves with the index of
// the first state to become ready, or -1 if `window` elapses first (the
// raced activities keep running either way; the caller owns them).
//
// A state already ready at entry wins without arming the timer. Otherwise
// every state gets a one-shot callback; the `fired` guard makes the first
// of them (or the timer) the only trigger, so two states resolving in one
// event cascade cannot trip the resolved-twice assert. On a win the timer
// is cancelled; either way the losers' callbacks are removed, so a state
// resolving later resumes nothing. On a tie at the window tick, whichever
// event the engine runs first wins.
//
// Wrapper over the coroutine impl (prvalue class-type arguments to
// coroutines are miscompiled by GCC 12, see flow/engine.hpp); the engine
// travels by pointer into the coroutine frame.
template <typename T>
Future<int> first_ready_impl(Engine* eng,
                             std::vector<std::shared_ptr<SharedState<T>>> states,
                             Seconds window) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i]->ready()) co_return int(i);
  }
  Event<int> ev;
  auto fired = std::make_shared<bool>(false);
  std::vector<std::uint64_t> tokens(states.size(), 0);
  for (std::size_t i = 0; i < states.size(); ++i) {
    tokens[i] = states[i]->add_callback([fired, ev, i] {
      if (*fired) return;
      *fired = true;
      Event<int> e = ev;  // shared state; trigger resumes the racer
      e.trigger(int(i));
    });
  }
  EventId timer = eng->schedule_in(window, [fired, ev] {
    if (*fired) return;
    *fired = true;
    Event<int> e = ev;
    e.trigger(-1);
  });
  int winner = co_await ev;
  if (winner >= 0) eng->cancel(timer);
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (int(i) == winner) continue;  // winner's callback was consumed
    states[i]->remove_callback(tokens[i]);
  }
  co_return winner;
}

template <typename T>
Future<int> first_ready(Engine& eng,
                        std::vector<std::shared_ptr<SharedState<T>>> states,
                        Seconds window) {
  return first_ready_impl(&eng, std::move(states), window);
}

}  // namespace alsflow::sim
