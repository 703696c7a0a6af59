#include "sched/policy.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace alsflow::sched {

namespace {

// Rank penalty that pushes sick-but-available sites behind every healthy
// one without making them unplaceable (a finite tier, not infinity, so
// comparisons stay total and deterministic).
constexpr Seconds kSickTier = 1e12;
// A registered-but-blacked-out WAN path prices the site as effectively
// unreachable (worse than sick): the bytes cannot move at all right now.
constexpr Seconds kUnreachable = 1e15;
// Sites below this health score rank behind every healthy one (unless
// every site is below it, in which case the least-bad available site is
// used — refusing to place at all loses scans).
constexpr double kMinHealth = 0.35;
// Execute-time prior before a site has reported any completed jobs.
constexpr Seconds kDefaultExec = 600.0;
// A hedge fires once the primary has consumed this multiple of its own
// predicted turnaround without completing.
constexpr double kHedgeAfterFraction = 1.5;
// ...but never sooner than this after the primary launched.
constexpr Seconds kMinHedgeDelay = 120.0;

}  // namespace

ScanRequest make_request(const data::ScanMetadata& scan, Seconds deadline) {
  ScanRequest req;
  req.scan_id = scan.scan_id;
  req.raw_bytes = scan.raw_bytes();
  req.recon_bytes = scan.recon_bytes();
  req.nz = scan.rows;
  req.n = scan.cols;
  req.deadline = deadline;
  return req;
}

Placement StaticDualPolicy::place(
    const ScanRequest& scan, const std::vector<FacilityState>& facilities) {
  (void)scan;
  Placement p;
  p.reason = "static_dual:";
  for (const FacilityState& f : facilities) {
    if (f.name != "nersc" && f.name != "alcf") continue;
    if (p.primary.empty()) {
      p.primary = f.name;
    } else {
      p.join.push_back(f.name);
    }
    p.reason += " " + f.name;
  }
  return p;
}

Placement RoundRobinPolicy::place(
    const ScanRequest& scan, const std::vector<FacilityState>& facilities) {
  (void)scan;
  std::vector<std::size_t> up;
  for (std::size_t i = 0; i < facilities.size(); ++i) {
    if (facilities[i].available) up.push_back(i);
  }
  Placement p;
  if (up.empty()) return p;
  const FacilityState& pick = facilities[up[cursor_ % up.size()]];
  ++cursor_;
  p.primary = pick.name;
  p.reason = "round_robin: " + pick.name;
  return p;
}

Seconds GreedyPolicy::predicted_turnaround(const ScanRequest& scan,
                                           const FacilityState& f) const {
  // WAN: raw out + products back at the live effective rate.
  Seconds transfer = 0.0;
  if (f.has_link) {
    if (f.link_bps <= 0.0) return kUnreachable;  // blackout
    transfer = (double(scan.raw_bytes) +
                double(scan.recon_bytes) * kProductFactor) /
                   f.link_bps +
               2.0 * f.link_latency;
  }
  // Queue: observed wait quantile plus a congestion term — every scan
  // already routed here that the site's capacity cannot absorb costs one
  // more execute slot (join-shortest-queue, expressed in seconds).
  const Seconds exec =
      f.queue.exec_mean > 0.0 ? f.queue.exec_mean : kDefaultExec;
  const double backlog =
      double(std::max(f.queue.inflight, f.inflight_placements));
  const Seconds congestion = exec * backlog / std::max(1.0, f.capacity_hint);
  const Seconds est =
      transfer + f.queue.queue_wait_p50 + congestion + exec;
  // A sick site inflates its own estimate: at health 0.5 it must look
  // twice as fast as a healthy one to win the scan.
  return est / std::clamp(f.health, 0.05, 1.0);
}

GreedyPolicy::Ranking GreedyPolicy::rank(
    const ScanRequest& scan,
    const std::vector<FacilityState>& facilities) const {
  Ranking r;
  for (std::size_t i = 0; i < facilities.size(); ++i) {
    const FacilityState& f = facilities[i];
    if (!f.available) continue;
    Seconds rank = predicted_turnaround(scan, f);
    if (f.health < kMinHealth) rank += kSickTier;
    if (r.best < 0 || rank < r.best_rank) {
      r.runner_up = r.best;
      r.runner_rank = r.best_rank;
      r.best = int(i);
      r.best_rank = rank;
    } else if (r.runner_up < 0 || rank < r.runner_rank) {
      r.runner_up = int(i);
      r.runner_rank = rank;
    }
  }
  return r;
}

Placement GreedyPolicy::place(const ScanRequest& scan,
                              const std::vector<FacilityState>& facilities) {
  const Ranking r = rank(scan, facilities);
  Placement p;
  if (r.best < 0) return p;
  p.primary = facilities[std::size_t(r.best)].name;
  char reason[128];
  std::snprintf(reason, sizeof reason, "greedy: %s predicted %.0fs",
                p.primary.c_str(), double(r.best_rank));
  p.reason = reason;  // greedy places exactly one attempt, never a hedge
  return p;
}

Placement HedgedPolicy::place(const ScanRequest& scan,
                              const std::vector<FacilityState>& facilities) {
  const GreedyPolicy::Ranking r = greedy_.rank(scan, facilities);
  Placement p;
  if (r.best < 0) return p;
  p.primary = facilities[std::size_t(r.best)].name;
  p.reason = "hedged: " + p.primary;
  // Only deadline scans pay for a backup, and only when a distinct
  // reachable site exists.
  if (scan.deadline > 0.0 && r.runner_up >= 0 &&
      r.runner_rank < kUnreachable) {
    p.hedge = facilities[std::size_t(r.runner_up)].name;
    Seconds delay = r.best_rank * kHedgeAfterFraction;
    // Leave the backup enough runway to beat the deadline.
    const Seconds runway = scan.deadline - r.runner_rank;
    if (runway > 0.0) delay = std::min(delay, runway);
    p.hedge_delay = std::max(delay, kMinHedgeDelay);
    p.reason += " hedge " + p.hedge;
  }
  return p;
}

std::unique_ptr<PlacementPolicy> make_policy(const std::string& name) {
  std::unique_ptr<PlacementPolicy> shipped[] = {
      std::make_unique<StaticDualPolicy>(),
      std::make_unique<RoundRobinPolicy>(),
      std::make_unique<GreedyPolicy>(),
      std::make_unique<HedgedPolicy>()};
  for (auto& policy : shipped) {
    if (policy->name() == name) return std::move(policy);
  }
  throw std::invalid_argument("unknown placement policy: " + name);
}

}  // namespace alsflow::sched
