// Network link with fair bandwidth sharing.
//
// Models a pipe (beamline NIC, ESnet path, node-local copy) with a fixed
// propagation latency and a capacity shared among concurrent transfers via
// processor sharing: n active transfers each progress at rate/n, recomputed
// on every arrival and departure — the standard fluid model for TCP-fair
// bulk flows, matching how concurrent Globus transfers behave on a shared
// path.
//
// Cost is O(log n) per event, by the virtual-time construction of GPS/WFQ
// (Parekh & Gallager '93; Demers, Keshav & Shenker '89). Under fair sharing
// every active transfer has received the same number of bytes since the
// link last went idle; that count is the link's virtual clock. A transfer
// arriving at virtual time v with b bytes finishes when the clock reaches
// its tag v + b, whatever arrives or leaves meanwhile, so the next
// completion is the smallest tag in a min-heap and advancing time is one
// addition, not a walk over every transfer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace alsflow::telemetry {
class Counter;
class Gauge;
}  // namespace alsflow::telemetry

namespace alsflow::net {

class Link {
 public:
  // bandwidth in bytes/second (see alsflow::gbps), latency per message.
  Link(sim::Engine& eng, std::string name, double bandwidth_bps,
       Seconds latency = 0.0);

  const std::string& name() const { return name_; }
  double bandwidth() const { return bandwidth_; }
  Seconds latency() const { return latency_; }

  // Move `bytes` across the link; resolves when the last byte (plus
  // propagation latency) has arrived. Zero-byte sends incur latency only.
  sim::Future<sim::Unit> send(Bytes bytes);

  // --- chaos seams (src/chaos drives these on the sim clock) ---
  //
  // WAN degradation: scale the shared capacity by `f` (1.0 = healthy,
  // 0.25 = a path running at a quarter rate). `f == 0` is a blackout:
  // in-flight and newly-submitted transfers stall, byte-for-byte where
  // they were, until the factor is restored — no transfer is failed, which
  // is how a routing flap looks to Globus (the task just stops moving).
  // Zero-byte sends (control messages) still deliver at latency.
  void set_bandwidth_factor(double f);
  double bandwidth_factor() const { return factor_; }

  // HPSS-style recall spike: extra per-delivery latency added on top of
  // the propagation latency (tape mount / recall queue ahead of the read).
  void set_extra_latency(Seconds s) { extra_latency_ = s < 0.0 ? 0.0 : s; }
  Seconds extra_latency() const { return extra_latency_; }

  std::size_t active_transfers() const { return active_.size(); }
  Bytes total_bytes_sent() const { return total_bytes_; }

  // Mean achieved throughput since construction (bytes/s of simulated
  // time); the Grafana-style bandwidth monitoring number.
  double mean_throughput() const;

 private:
  struct Transfer {
    double tag = 0.0;         // finish tag: vtime_ at arrival + bytes
    std::uint64_t seq = 0;    // arrival order; breaks tag ties
    double bytes = 0.0;       // original payload size
    Seconds started = 0.0;    // when the send entered the link
    sim::Event<sim::Unit> done;
  };
  // Heap order for active_: the smallest (tag, seq) on top.
  static bool finishes_later(const Transfer& a, const Transfer& b);

  // Advance the virtual clock to now.
  void update_progress();
  void reschedule();
  void on_completion_event();
  // Refresh the per-link telemetry gauges (no-op when telemetry is off).
  void record_metrics();
  // Look up this link's instruments once; the registry keeps them valid.
  void bind_instruments();

  sim::Engine& eng_;
  std::string name_;
  double bandwidth_;
  Seconds latency_;
  double factor_ = 1.0;          // chaos bandwidth scale; 0 = blackout
  Seconds extra_latency_ = 0.0;  // chaos recall-latency spike
  std::vector<Transfer> active_;  // min-heap by (tag, seq)
  std::vector<Transfer> drained_;  // on_completion_event's scratch
  double vtime_ = 0.0;  // bytes each active transfer has received; 0 when idle
  std::uint64_t next_seq_ = 0;
  telemetry::Counter* bytes_total_ = nullptr;
  telemetry::Gauge* active_gauge_ = nullptr;
  telemetry::Gauge* throughput_gauge_ = nullptr;
  Seconds last_update_ = 0.0;
  sim::EventId pending_event_ = 0;
  Bytes total_bytes_ = 0;
  Seconds created_at_ = 0.0;
};

}  // namespace alsflow::net
