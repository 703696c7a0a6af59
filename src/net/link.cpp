#include "net/link.hpp"

#include <algorithm>
#include <cassert>

#include "common/telemetry.hpp"

namespace alsflow::net {

// Link-level Grafana panel numbers: concurrent transfers (instantaneous
// utilization proxy), bytes offered, and the achieved mean throughput.
void Link::record_metrics() {
  if (!telemetry::global().enabled()) return;
  bind_instruments();
  active_gauge_->set(double(active_.size()));
  throughput_gauge_->set(mean_throughput());
}

void Link::bind_instruments() {
  if (bytes_total_ != nullptr) return;
  const std::string label = "link=\"" + name_ + "\"";
  auto& m = telemetry::global().metrics();
  bytes_total_ = &m.counter("alsflow_link_bytes_total", label);
  active_gauge_ = &m.gauge("alsflow_link_active_transfers", label);
  throughput_gauge_ = &m.gauge("alsflow_link_mean_throughput_bps", label);
}

Link::Link(sim::Engine& eng, std::string name, double bandwidth_bps,
           Seconds latency)
    : eng_(eng),
      name_(std::move(name)),
      bandwidth_(bandwidth_bps),
      latency_(latency),
      last_update_(eng.now()),
      created_at_(eng.now()) {
  assert(bandwidth_ > 0.0);
}

void Link::update_progress() {
  const Seconds now = eng_.now();
  const Seconds dt = now - last_update_;
  last_update_ = now;
  if (active_.empty() || dt <= 0.0) return;
  const double rate_each = bandwidth_ * factor_ / double(active_.size());
  if (rate_each <= 0.0) return;  // blacked out: nothing moved
  vtime_ += rate_each * dt;
}

bool Link::finishes_later(const Transfer& a, const Transfer& b) {
  return a.tag > b.tag || (a.tag == b.tag && a.seq > b.seq);
}

void Link::reschedule() {
  if (pending_event_ != 0) {
    eng_.cancel(pending_event_);
    pending_event_ = 0;
  }
  if (active_.empty()) return;
  const double rate_each = bandwidth_ * factor_ / double(active_.size());
  // Blackout: transfers hold their position; set_bandwidth_factor(> 0)
  // reschedules when the path comes back.
  if (rate_each <= 0.0) return;
  const double min_remaining = std::max(0.0, active_.front().tag - vtime_);
  const Seconds eta = min_remaining / rate_each;
  pending_event_ = eng_.schedule_in(eta, [this] {
    pending_event_ = 0;
    on_completion_event();
  });
}

void Link::set_bandwidth_factor(double f) {
  // Settle progress at the old rate first, then apply the new one.
  update_progress();
  factor_ = f < 0.0 ? 0.0 : f;
  reschedule();
  record_metrics();
}

void Link::on_completion_event() {
  update_progress();
  // Pop every transfer that has drained (float tolerance: sub-byte), then
  // deliver them in arrival order.
  // Only the engine calls this, so drained_ is never in use on entry; a
  // waiter resumed below may send(), which touches active_ alone.
  while (!active_.empty() && active_.front().tag - vtime_ <= 0.5) {
    std::pop_heap(active_.begin(), active_.end(), finishes_later);
    drained_.push_back(std::move(active_.back()));
    active_.pop_back();
  }
  // Restart the virtual clock with each busy period so tags stay small.
  if (active_.empty()) vtime_ = 0.0;
  std::sort(drained_.begin(), drained_.end(),
            [](const Transfer& a, const Transfer& b) { return a.seq < b.seq; });
  for (auto& t : drained_) {
    // Deliver after propagation latency (plus any chaos recall spike in
    // effect at delivery time).
    const Seconds deliver = latency_ + extra_latency_;
    {
      // Per-delivery slowdown: achieved time over the contention-free,
      // healthy-link time. ~n under n-way fair sharing; far above that
      // under degradation, blackout stalls, or recall spikes. Stamped
      // with the delivery time (no event is scheduled for it).
      auto& tel = telemetry::global();
      if (tel.observing() && t.bytes > 0.5) {
        const double expected = t.bytes / bandwidth_ + latency_;
        telemetry::MonitorEvent ev;
        ev.t = eng_.now() + deliver;
        ev.component = "net";
        ev.kind = "delivery";
        ev.target = name_;
        ev.value = expected > 0.0
                       ? (eng_.now() - t.started + deliver) / expected
                       : 1.0;
        tel.emit(ev);
      }
    }
    auto done = t.done;
    if (deliver > 0.0) {
      eng_.schedule_in(deliver, [done]() mutable { done.trigger(); });
    } else {
      done.trigger();
    }
  }
  drained_.clear();
  record_metrics();
  reschedule();
}

sim::Future<sim::Unit> Link::send(Bytes bytes) {
  update_progress();
  total_bytes_ += bytes;
  if (telemetry::global().enabled()) {
    bind_instruments();
    bytes_total_->add(bytes);
  }
  sim::Event<sim::Unit> done;
  if (bytes == 0) {
    const Seconds deliver = latency_ + extra_latency_;
    if (deliver > 0.0) {
      eng_.schedule_in(deliver, [done]() mutable { done.trigger(); });
    } else {
      // Resolve asynchronously so callers can always co_await first.
      eng_.schedule_in(0.0, [done]() mutable { done.trigger(); });
    }
  } else {
    Transfer t;
    t.tag = vtime_ + double(bytes);
    t.seq = next_seq_++;
    t.bytes = double(bytes);
    t.started = eng_.now();
    t.done = done;
    active_.push_back(std::move(t));
    std::push_heap(active_.begin(), active_.end(), finishes_later);
    reschedule();
  }
  record_metrics();
  return [](sim::Event<sim::Unit> ev) -> sim::Future<sim::Unit> {
    co_await ev;
    co_return sim::Unit{};
  }(done);
}

double Link::mean_throughput() const {
  const Seconds elapsed = eng_.now() - created_at_;
  return elapsed > 0.0 ? double(total_bytes_) / elapsed : 0.0;
}

}  // namespace alsflow::net
