// Placement policies: how the federated scheduler chooses a facility.
//
// The contract (DESIGN.md §17): place() is a *pure* function of the scan
// request and the facility-state snapshot it is handed — no hidden clocks,
// no randomness, iteration in snapshot order with strict-less-than
// comparisons — so a fixed seed yields byte-identical placement sequences
// and a policy decision can be unit-tested against hand-built snapshots.
// Policies may keep internal counters (round-robin's cursor) but may not
// touch the world.
//
// Four shipped policies, mirroring the evaluation ladder in the paper's
// federated-facilities companion work:
//   StaticDualPolicy — the paper's production baseline: every scan runs
//                      at NERSC *and* ALCF (no decision, double the work).
//   RoundRobinPolicy — static baseline: rotate over available sites.
//   GreedyPolicy     — lowest predicted turnaround: WAN transfer estimate
//                      (raw out + products back over the live link rate)
//                      + queue-wait p50 + congestion (in-flight vs
//                      capacity) + execute estimate, inflated for sick
//                      sites (health scales the estimate).
//   HedgedPolicy     — greedy, plus a runner-up hedge for deadline scans:
//                      if the primary hasn't finished within hedge_delay,
//                      the scheduler launches the backup placement and
//                      races them (idempotent flows make the duplicate
//                      safe).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "data/scan_meta.hpp"
#include "sched/directory.hpp"

namespace alsflow::sched {

// Reconstruction products (TIFF stack + Zarr pyramid) relative to the
// base recon volume: what a facility writes and moves back per scan.
inline constexpr double kProductFactor = 1.3;

// One scan, as the scheduler sees it: identity plus the size and shape
// parameters the placement cost model needs.
struct ScanRequest {
  std::string scan_id;
  Bytes raw_bytes = 0;      // moved to the facility
  Bytes recon_bytes = 0;    // base product size (x kProductFactor back)
  std::size_t nz = 0;       // output slices (execute-time estimate)
  std::size_t n = 0;        // slice edge
  Seconds deadline = 0.0;   // <= 0: no deadline (hedging disabled)
};

// The scheduler's view of an acquisition: sizes from the scan's own
// raw/recon byte model, one output slice per detector row, cols-wide.
ScanRequest make_request(const data::ScanMetadata& scan, Seconds deadline);

struct Placement {
  std::string primary;        // "" = nothing placeable right now
  // Non-empty: a join-all placement. `primary` and these sites launch
  // together; the scan resolves once every branch is terminal and
  // completes only if all completed (no hedge, failover or re-placement).
  std::vector<std::string> join;
  std::string hedge;          // optional backup facility
  Seconds hedge_delay = 0.0;  // launch the hedge this long after primary
  std::string reason;         // decision trace (tests + flight recorder)
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string name() const = 0;
  virtual Placement place(const ScanRequest& scan,
                          const std::vector<FacilityState>& facilities) = 0;
};

// Launch the nersc and then the alcf route, in snapshot order, as one
// join-all placement. Availability is ignored: a dark adapter holds the
// submission at its outage gate, as in production.
class StaticDualPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "static_dual"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;
};

// Static baseline: rotate over the available facilities in snapshot
// order, skipping sites whose adapter is dark.
class RoundRobinPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "round_robin"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;

 private:
  std::size_t cursor_ = 0;
};

class GreedyPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "greedy"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;

  // The cost model, exposed for tests: predicted submit-to-products-back
  // seconds for `scan` at `f`.
  Seconds predicted_turnaround(const ScanRequest& scan,
                               const FacilityState& f) const;

  // The best and runner-up available sites under the cost model, sick
  // sites behind every healthy one (-1 where absent). HedgedPolicy uses it.
  struct Ranking {
    int best = -1;
    int runner_up = -1;
    Seconds best_rank = 0.0;
    Seconds runner_rank = 0.0;
  };
  Ranking rank(const ScanRequest& scan,
               const std::vector<FacilityState>& facilities) const;
};

// Greedy placement plus a runner-up hedge for deadline scans.
class HedgedPolicy : public PlacementPolicy {
 public:
  std::string name() const override { return "hedged"; }
  Placement place(const ScanRequest& scan,
                  const std::vector<FacilityState>& facilities) override;

 private:
  GreedyPolicy greedy_;
};

// Factory for the shipped policies ("static_dual" | "round_robin" |
// "greedy" | "hedged"); throws std::invalid_argument for any other name.
// Fleet shards each get their own instance so per-policy state (the
// round-robin cursor) stays shard-local.
std::unique_ptr<PlacementPolicy> make_policy(const std::string& name);

}  // namespace alsflow::sched
