// FederatedScheduler: the PLACE/RACE loop of DESIGN.md §17 (state machine
// in scheduler.hpp). Every RACE step is one sim::first_ready over the
// attempts still in flight, bounded by the hedge delay or the failover
// timeout.
#include "sched/scheduler.hpp"

#include <memory>
#include <set>
#include <utility>

namespace alsflow::sched {

using RunState_ = std::shared_ptr<sim::SharedState<flow::FlowRunResult>>;

FederatedScheduler::FederatedScheduler(sim::Engine& eng,
                                       flow::FlowEngine& flows,
                                       FacilityDirectory& directory,
                                       PlacementPolicy& policy,
                                       SchedulerConfig cfg)
    : eng_(eng), flows_(flows), dir_(directory), policy_(policy), cfg_(cfg) {}

sim::Future<flow::FlowRunResult> FederatedScheduler::launch(
    const std::string& facility, const std::string& scan_id) {
  dir_.note_placed(facility);
  ++placements_[facility];
  auto fut = flows_.run_flow(dir_.flow_for(facility), scan_id);
  if (fut.done()) {
    dir_.note_finished(facility);
  } else {
    // The placement count drops when the run resolves even if the
    // scheduler has long since stopped waiting on this attempt.
    fut.state()->add_callback(
        [this, facility] { dir_.note_finished(facility); });
  }
  return fut;
}

sim::Future<ScanResult> FederatedScheduler::submit_impl(ScanRequest scan) {
  ScanResult res;
  res.scan_id = scan.scan_id;
  res.submitted_at = eng_.now();

  // Attempts still racing: parallel arrays into res.attempts.
  std::vector<RunState_> states;
  std::vector<std::size_t> attempt_of;

  std::set<std::string> tried;
  int launches = 0;
  bool join_branches = false;  // see Placement::join
  bool branches_ok = true;     // join-all: every resolved branch completed
  bool hedge_armed = false;
  std::string pending_hedge;
  Seconds hedge_delay = 0.0;

  auto start = [&](const std::string& facility, bool is_hedge,
                   bool is_failover) {
    AttemptRecord a;
    a.facility = facility;
    a.flow_name = dir_.flow_for(facility);
    a.launched_at = eng_.now();
    a.hedge = is_hedge;
    a.failover = is_failover;
    res.attempts.push_back(std::move(a));
    attempt_of.push_back(res.attempts.size() - 1);
    states.push_back(launch(facility, res.scan_id).state());
    tried.insert(facility);
    ++launches;
  };

  while (true) {
    if (eng_.now() - res.submitted_at > cfg_.give_up_after) break;  // lost

    if (states.empty()) {
      // PLACE: nothing racing — initial placement, or every launched
      // attempt failed terminally.
      if (launches >= cfg_.max_attempts) break;  // budget exhausted: lost
      Placement p = policy_.place(scan, dir_.snapshot(eng_.now()));
      if (p.primary.empty()) {
        // Everything dark: back off and re-decide (outages end).
        co_await sim::delay(eng_, cfg_.placement_backoff);
        continue;
      }
      if (res.reason.empty()) res.reason = p.reason;
      start(p.primary, /*is_hedge=*/false, /*is_failover=*/launches > 0);
      if (launches > 1) {
        ++failovers_;
        res.failed_over = true;
      }
      join_branches = !p.join.empty();
      for (const std::string& facility : p.join) {
        start(facility, /*is_hedge=*/false, /*is_failover=*/false);
      }
      if (!p.hedge.empty() && scan.deadline > 0.0) {
        hedge_armed = true;
        pending_hedge = p.hedge;
        hedge_delay = p.hedge_delay;
      }
      continue;
    }

    // RACE the outstanding attempts against the active window.
    const Seconds window = hedge_armed ? hedge_delay : cfg_.failover_timeout;
    int winner = co_await sim::first_ready(eng_, states, window);

    if (winner < 0) {
      // Window expired with everything still in flight.
      if (hedge_armed) {
        hedge_armed = false;
        if (launches < cfg_.max_attempts && dir_.has(pending_hedge)) {
          start(pending_hedge, /*is_hedge=*/true, /*is_failover=*/false);
          ++hedges_;
          res.hedged = true;
        }
        continue;
      }
      // Failover: the primary has gone dark mid-run (outage = queue wait,
      // so no failure will ever arrive). Drain to the best *untried*
      // reachable site and keep racing the stalled attempt; resubmission
      // is safe because facility flows carry idempotency keys. A join-all
      // placement never fails over: every branch runs to its end.
      if (join_branches || launches >= cfg_.max_attempts) continue;
      auto snap = dir_.snapshot(eng_.now());
      std::vector<FacilityState> untried;
      for (auto& f : snap) {
        if (tried.count(f.name) == 0) untried.push_back(std::move(f));
      }
      if (untried.empty()) {
        // Every site has been tried; forget history so a recovered site
        // can be re-placed rather than losing the scan.
        tried.clear();
        for (std::size_t i = 0; i < attempt_of.size(); ++i) {
          // ...except sites still racing — relaunching those is pure waste.
          tried.insert(res.attempts[attempt_of[i]].facility);
        }
        continue;
      }
      Placement p = policy_.place(scan, untried);
      if (!p.primary.empty()) {
        start(p.primary, /*is_hedge=*/false, /*is_failover=*/true);
        ++failovers_;
        res.failed_over = true;
      }
      continue;
    }

    // An attempt resolved. Hold its state: erasing it from `states` below
    // may drop the last other reference.
    const RunState_ state = states[std::size_t(winner)];
    const flow::FlowRunResult& r = state->value();
    AttemptRecord& a = res.attempts[attempt_of[std::size_t(winner)]];
    a.finished_at = eng_.now();
    const bool ok = r.state == flow::RunState::Completed;
    a.result = ok ? std::string("completed")
                  : "failed:" + (r.status.ok() ? std::string("unknown")
                                               : r.status.error().code);
    branches_ok = branches_ok && ok;
    states.erase(states.begin() + winner);
    attempt_of.erase(attempt_of.begin() + winner);
    // Any-wins: the first completion resolves the scan; a failure PLACEs
    // again once nothing is left racing. Join-all: resolve when the last
    // branch is terminal, completed only if every branch completed.
    if (join_branches ? !states.empty() : !ok) continue;
    res.completed = join_branches ? branches_ok : ok;
    if (res.completed) {
      res.facility = a.facility;
      res.flow_run_id = r.run_id;
    }
    break;
  }

  res.finished_at = eng_.now();
  if (res.completed) {
    ++completed_;
  } else {
    ++lost_;
  }

  auto& tel = telemetry::global();
  if (tel.observing()) {
    telemetry::MonitorEvent ev;
    ev.t = res.finished_at;
    ev.component = "sched";
    ev.kind = "turnaround";
    ev.target = res.completed ? res.facility : "lost";
    ev.value = res.turnaround();
    ev.ok = res.completed;
    ev.detail = res.reason;
    tel.emit(ev);
  }
  co_return res;
}

}  // namespace alsflow::sched
