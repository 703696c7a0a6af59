#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/link.hpp"
#include "net/pubsub.hpp"

namespace alsflow::net {
namespace {

using sim::Engine;
using sim::Proc;

Proc send_and_record(Engine& eng, Link& link, Bytes bytes,
                     std::vector<double>& finished_at) {
  co_await link.send(bytes);
  finished_at.push_back(eng.now());
}

TEST(Link, SingleTransferTakesSizeOverBandwidth) {
  Engine eng;
  Link link(eng, "esnet", 100.0);  // 100 B/s
  std::vector<double> done;
  send_and_record(eng, link, 1000, done).detach();
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
}

TEST(Link, LatencyAdds) {
  Engine eng;
  Link link(eng, "esnet", 100.0, 2.5);
  std::vector<double> done;
  send_and_record(eng, link, 1000, done).detach();
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 12.5, 1e-6);
}

TEST(Link, ZeroBytesIsLatencyOnly) {
  Engine eng;
  Link link(eng, "esnet", 100.0, 3.0);
  std::vector<double> done;
  send_and_record(eng, link, 0, done).detach();
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 3.0, 1e-6);
}

TEST(Link, TwoConcurrentTransfersShareBandwidth) {
  Engine eng;
  Link link(eng, "esnet", 100.0);
  std::vector<double> done;
  // Both start at t=0; each gets 50 B/s while both are active.
  send_and_record(eng, link, 1000, done).detach();
  send_and_record(eng, link, 1000, done).detach();
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 20.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

TEST(Link, UnequalTransfersProcessorSharing) {
  Engine eng;
  Link link(eng, "l", 100.0);
  std::vector<double> done_small, done_big;
  send_and_record(eng, link, 500, done_small).detach();
  send_and_record(eng, link, 1500, done_big).detach();
  eng.run();
  // Phase 1: both at 50 B/s; small (500 B) finishes at t=10.
  // Phase 2: big has 1000 B left at 100 B/s -> finishes at t=20.
  ASSERT_EQ(done_small.size(), 1u);
  ASSERT_EQ(done_big.size(), 1u);
  EXPECT_NEAR(done_small[0], 10.0, 1e-6);
  EXPECT_NEAR(done_big[0], 20.0, 1e-6);
}

Proc staggered_sender(Engine& eng, Link& link, Seconds start, Bytes bytes,
                      std::vector<double>& done) {
  co_await sim::delay(eng, start);
  co_await link.send(bytes);
  done.push_back(eng.now());
}

TEST(Link, LateArrivalSlowsExisting) {
  Engine eng;
  Link link(eng, "l", 100.0);
  std::vector<double> first, second;
  staggered_sender(eng, link, 0.0, 1000, first).detach();
  staggered_sender(eng, link, 5.0, 1000, second).detach();
  eng.run();
  // First: 500 B alone (t=0..5), then shares: 500 B at 50 B/s -> t=15.
  // Second: 500 B at 50 B/s (t=5..15), then alone: 500 B at 100 B/s -> t=20.
  EXPECT_NEAR(first[0], 15.0, 1e-6);
  EXPECT_NEAR(second[0], 20.0, 1e-6);
}

TEST(Link, TracksTotalsAndThroughput) {
  Engine eng;
  Link link(eng, "l", 100.0);
  std::vector<double> done;
  send_and_record(eng, link, 1000, done).detach();
  eng.run();
  EXPECT_EQ(link.total_bytes_sent(), 1000u);
  EXPECT_NEAR(link.mean_throughput(), 100.0, 1e-6);
  EXPECT_EQ(link.active_transfers(), 0u);
}

// --- Equivalence with the O(n) processor-sharing model -------------------
//
// RefLink is the per-transfer formulation Link replaced: every active
// transfer's remaining byte count is decremented at rate/n on each event,
// and completions are found by walking the list in arrival order. Link
// must complete the same transfers in the same order at the same times.
class RefLink {
 public:
  RefLink(Engine& eng, double bandwidth, Seconds latency)
      : eng_(eng), bandwidth_(bandwidth), latency_(latency) {}

  sim::Future<sim::Unit> send(Bytes bytes) {
    update_progress();
    sim::Event<sim::Unit> done;
    const Seconds deliver = latency_ + extra_latency_;
    if (bytes == 0) {
      eng_.schedule_in(deliver, [done]() mutable { done.trigger(); });
    } else {
      active_.push_back({double(bytes), done});
      reschedule();
    }
    return [](sim::Event<sim::Unit> ev) -> sim::Future<sim::Unit> {
      co_await ev;
      co_return sim::Unit{};
    }(done);
  }

  void set_bandwidth_factor(double f) {
    update_progress();
    factor_ = f < 0.0 ? 0.0 : f;
    reschedule();
  }

  void set_extra_latency(Seconds s) { extra_latency_ = s < 0.0 ? 0.0 : s; }

 private:
  struct Transfer {
    double remaining;
    sim::Event<sim::Unit> done;
  };

  double rate_each() const {
    return bandwidth_ * factor_ / double(active_.size());
  }

  void update_progress() {
    const Seconds dt = eng_.now() - last_update_;
    last_update_ = eng_.now();
    if (active_.empty() || dt <= 0.0 || rate_each() <= 0.0) return;
    const double moved = rate_each() * dt;
    for (auto& t : active_) t.remaining = std::max(0.0, t.remaining - moved);
  }

  void reschedule() {
    if (pending_ != 0) eng_.cancel(pending_);
    pending_ = 0;
    if (active_.empty() || rate_each() <= 0.0) return;
    double min_remaining = active_.front().remaining;
    for (const auto& t : active_) {
      min_remaining = std::min(min_remaining, t.remaining);
    }
    pending_ = eng_.schedule_in(min_remaining / rate_each(), [this] {
      pending_ = 0;
      on_completion();
    });
  }

  void on_completion() {
    update_progress();
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->remaining > 0.5) {
        ++it;
        continue;
      }
      auto done = it->done;
      it = active_.erase(it);
      const Seconds deliver = latency_ + extra_latency_;
      if (deliver > 0.0) {
        eng_.schedule_in(deliver, [done]() mutable { done.trigger(); });
      } else {
        done.trigger();
      }
    }
    reschedule();
  }

  Engine& eng_;
  double bandwidth_;
  Seconds latency_;
  double factor_ = 1.0;
  Seconds extra_latency_ = 0.0;
  std::list<Transfer> active_;
  Seconds last_update_ = 0.0;
  sim::EventId pending_ = 0;
};

struct Step {
  enum Kind { Send, Factor, ExtraLatency } kind;
  Seconds at;
  double value;  // bytes, bandwidth factor, or extra latency
};

struct Completion {
  int id;
  double at;
};

template <typename L>
Proc timed_send(Engine& eng, L& link, int id, Bytes bytes,
                std::vector<Completion>& out) {
  co_await link.send(bytes);
  out.push_back({id, eng.now()});
}

template <typename L>
std::vector<Completion> drive(const std::vector<Step>& script,
                              double bandwidth, Seconds latency) {
  Engine eng;
  L link(eng, bandwidth, latency);
  std::vector<Completion> out;
  int next_id = 0;
  for (const Step& s : script) {
    const int id = s.kind == Step::Send ? next_id++ : -1;
    eng.schedule_at(s.at, [&eng, &link, &out, s, id] {
      switch (s.kind) {
        case Step::Send:
          timed_send(eng, link, id, Bytes(s.value), out).detach();
          break;
        case Step::Factor:
          link.set_bandwidth_factor(s.value);
          break;
        case Step::ExtraLatency:
          link.set_extra_latency(s.value);
          break;
      }
    });
  }
  eng.run();
  return out;
}

// Adapts Link to drive()'s (engine, bandwidth, latency) constructor.
struct FairLink : Link {
  FairLink(Engine& eng, double bandwidth, Seconds latency)
      : Link(eng, "wan", bandwidth, latency) {}
};

void expect_same_completions(const std::vector<Step>& script,
                             double bandwidth, Seconds latency) {
  const auto ref = drive<RefLink>(script, bandwidth, latency);
  const auto got = drive<FairLink>(script, bandwidth, latency);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i].id, ref[i].id) << "completion " << i;
    EXPECT_NEAR(got[i].at, ref[i].at, 1e-9 * std::max(1.0, ref[i].at))
        << "transfer " << ref[i].id;
  }
}

// A seeded script over a 10 Gbps path: sends of 0 B to 20 GB, a third of
// them at the same instant as the step before; degradations, blackouts
// and their restores; recall-latency spikes.
std::vector<Step> random_script(std::uint64_t seed, int steps) {
  Rng rng(seed);
  std::vector<Step> script;
  Seconds t = 0.0;
  for (int i = 0; i < steps; ++i) {
    if (!rng.bernoulli(0.3)) t += rng.exponential(5.0);
    const double u = rng.uniform();
    if (u < 0.8) {
      const double bytes =
          rng.bernoulli(0.1) ? 0.0 : double(rng.uniform_int(1, 20'000'000'000));
      script.push_back({Step::Send, t, bytes});
    } else if (u < 0.9) {
      static constexpr double kFactors[] = {0.0, 0.1, 0.25, 0.5, 1.0};
      script.push_back({Step::Factor, t, kFactors[rng.uniform_int(0, 4)]});
    } else {
      const double spike = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 30.0);
      script.push_back({Step::ExtraLatency, t, spike});
    }
  }
  script.push_back({Step::Factor, t + 1.0, 1.0});  // end every blackout
  return script;
}

TEST(LinkEquivalence, MatchesPerTransferModelOnRandomScripts) {
  for (std::uint64_t seed : {1u, 7u, 42u, 2026u, 99991u}) {
    SCOPED_TRACE(seed);
    const auto script = random_script(seed, 600);
    expect_same_completions(script, gbps(10.0), 0.03);
  }
}

TEST(LinkEquivalence, SameInstantDrainDeliversInArrivalOrder) {
  // 100 B/s, no latency. A (1001 B) runs alone for 5 ms, so B and C (1000 B
  // each, arriving together) get a smaller finish tag than A. All three
  // drain in one event at t = 30.005 s (A within the sub-byte tolerance)
  // and must deliver A, B, C.
  const std::vector<Step> script = {{Step::Send, 0.0, 1001.0},
                                    {Step::Send, 0.005, 1000.0},
                                    {Step::Send, 0.005, 1000.0}};
  const auto got = drive<FairLink>(script, 100.0, 0.0);
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].id, i);
    EXPECT_NEAR(got[i].at, 30.005, 1e-9);
  }
  expect_same_completions(script, 100.0, 0.0);
}

TEST(LinkEquivalence, BlackoutFreezesProgress) {
  // 1000 B at 100 B/s; dark from t=4 to t=10, so it lands at 16 s.
  const std::vector<Step> script = {{Step::Send, 0.0, 1000.0},
                                    {Step::Factor, 4.0, 0.0},
                                    {Step::Send, 5.0, 0.0},
                                    {Step::Factor, 10.0, 1.0}};
  const auto got = drive<FairLink>(script, 100.0, 0.0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 1);  // the control message is not stalled
  EXPECT_NEAR(got[0].at, 5.0, 1e-9);
  EXPECT_EQ(got[1].id, 0);
  EXPECT_NEAR(got[1].at, 16.0, 1e-9);
  expect_same_completions(script, 100.0, 0.0);
}

TEST(Channel, DeliversToAllSubscribers) {
  Engine eng;
  Channel<int> ch(eng, "ioc");
  auto s1 = ch.subscribe();
  auto s2 = ch.subscribe();
  ch.publish(42);
  eng.run();
  EXPECT_EQ(s1->queue().size(), 1u);
  EXPECT_EQ(s2->queue().size(), 1u);
  EXPECT_EQ(*s1->queue().try_pop(), 42);
  EXPECT_EQ(ch.published(), 1u);
}

TEST(Channel, LinkDelaysDelivery) {
  Engine eng;
  Link slow(eng, "esnet", 100.0, 1.0);
  Channel<int> ch(eng, "ioc");
  auto local = ch.subscribe();                  // instant
  auto remote = ch.subscribe(&slow, 200);       // 2s transfer + 1s latency

  ch.publish(7);
  EXPECT_EQ(local->queue().size(), 1u);
  EXPECT_EQ(remote->queue().size(), 0u);
  eng.run_until(2.9);
  EXPECT_EQ(remote->queue().size(), 0u);
  eng.run_until(3.1);
  EXPECT_EQ(remote->queue().size(), 1u);
}

TEST(Channel, BoundedQueueDropsOldest) {
  Engine eng;
  Channel<int> ch(eng, "ioc");
  auto sub = ch.subscribe(nullptr, 0, /*max_depth=*/2);
  ch.publish(1);
  ch.publish(2);
  ch.publish(3);
  EXPECT_EQ(sub->overruns(), 1u);
  EXPECT_EQ(*sub->queue().try_pop(), 2);  // 1 was dropped
  EXPECT_EQ(*sub->queue().try_pop(), 3);
}

Proc consume_n(Engine& eng, std::shared_ptr<Subscription<int>> sub, int n,
               std::vector<int>& out) {
  (void)eng;
  for (int i = 0; i < n; ++i) out.push_back(co_await sub->queue().pop());
}

TEST(MirrorServer, RepublishesInOrder) {
  Engine eng;
  Channel<int> ioc(eng, "ioc");
  MirrorServer<int> mirror(eng, ioc, "mirror");
  auto writer = mirror.channel().subscribe();
  auto streamer = mirror.channel().subscribe();

  std::vector<int> got_writer, got_streamer;
  consume_n(eng, writer, 3, got_writer).detach();
  consume_n(eng, streamer, 3, got_streamer).detach();

  ioc.publish(10);
  ioc.publish(11);
  ioc.publish(12);
  eng.run();

  EXPECT_EQ(got_writer, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(got_streamer, (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(mirror.forwarded(), 3u);
  // The IOC channel itself has exactly one subscriber: the mirror.
  EXPECT_EQ(ioc.subscriber_count(), 1u);
}

}  // namespace
}  // namespace alsflow::net
