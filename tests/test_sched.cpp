// Federated scheduler suite (DESIGN.md §17).
//
// Layers, matching the subsystem's contracts:
//   policy units     — place() is a pure function of (scan, snapshot), so
//                      each decision rule is pinned against hand-built
//                      snapshots: the static dual branch, rotation,
//                      cost-model ordering, blackout unreachability,
//                      sick-site avoidance, deadline-only hedging.
//   scheduler units  — a join-all placement waits for every branch and
//                      never fails over, hedges or re-places.
//   fleet campaigns  — a ≥1000-scan, 8-beamline campaign with dynamic
//                      placement completes with zero lost scans; a
//                      mid-campaign facility blackout still loses nothing
//                      (failover resubmission rides the idempotency
//                      ledger) and the whole faulted campaign is
//                      byte-identical across runs (the digest pins it).
//   merged queries   — the sharded Table-2 path over per-beamline run
//                      databases reproduces what one unsharded database
//                      over the same runs reports, exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/scenario.hpp"
#include "common/units.hpp"
#include "facility_rig.hpp"
#include "flow/run_db.hpp"
#include "hpc/cloud.hpp"
#include "pipeline/facility.hpp"
#include "sim/engine.hpp"
#include "sched/campaign.hpp"
#include "sched/directory.hpp"
#include "sched/fleet.hpp"
#include "sched/policy.hpp"
#include "sched/scheduler.hpp"

namespace alsflow::sched {
namespace {

// ---------------------------------------------------------------------------
// Policy units
// ---------------------------------------------------------------------------

FacilityState make_state(const std::string& name, Seconds queue_wait_p50,
                         Seconds exec_mean, std::size_t inflight,
                         double capacity) {
  FacilityState s;
  s.name = name;
  s.flow_name = "recon_" + name;
  s.available = true;
  s.health = 1.0;
  s.queue.queue_wait_p50 = queue_wait_p50;
  s.queue.exec_mean = exec_mean;
  s.queue.completed = 1;
  s.has_link = true;
  s.link_bps = gbps(10.0);
  s.link_latency = 0.03;
  s.capacity_hint = capacity;
  s.inflight_placements = inflight;
  return s;
}

ScanRequest small_request(Seconds deadline = 0.0) {
  ScanRequest r;
  r.scan_id = "scan-unit";
  r.raw_bytes = Bytes(1) << 30;  // 1 GiB out
  r.recon_bytes = Bytes(1) << 30;
  r.nz = 512;
  r.n = 1024;
  r.deadline = deadline;
  return r;
}

TEST(RoundRobinPolicy, RotatesOverAvailableSitesOnly) {
  RoundRobinPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 10, 100, 0, 6),
                                     make_state("cloud", 10, 100, 0, 16)};
  snap[1].available = false;  // alcf dark: rotation must skip it

  std::vector<std::string> picks;
  for (int i = 0; i < 4; ++i) {
    picks.push_back(policy.place(small_request(), snap).primary);
  }
  EXPECT_EQ(picks,
            (std::vector<std::string>{"nersc", "cloud", "nersc", "cloud"}));
}

TEST(RoundRobinPolicy, NothingAvailablePlacesNothing) {
  RoundRobinPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 0, 0, 0, 1)};
  snap[0].available = false;
  EXPECT_EQ(policy.place(small_request(), snap).primary, "");
  EXPECT_EQ(policy.place(small_request(), {}).primary, "");
}

TEST(GreedyPolicy, PicksLowestPredictedTurnaround) {
  GreedyPolicy policy;
  // Same link and capacity; alcf has the shorter queue.
  std::vector<FacilityState> snap = {make_state("nersc", 500, 200, 0, 8),
                                     make_state("alcf", 20, 200, 0, 8)};
  Placement p = policy.place(small_request(), snap);
  EXPECT_EQ(p.primary, "alcf");
  EXPECT_EQ(p.hedge, "");  // greedy never hedges
  EXPECT_LT(policy.predicted_turnaround(small_request(), snap[1]),
            policy.predicted_turnaround(small_request(), snap[0]));
}

TEST(GreedyPolicy, CongestionSteersAwayFromBackloggedSite) {
  GreedyPolicy policy;
  // Identical sites except nersc already carries 16 in-flight placements
  // against 8 slots: join-shortest-queue must route elsewhere.
  std::vector<FacilityState> snap = {make_state("nersc", 10, 300, 16, 8),
                                     make_state("alcf", 10, 300, 0, 8)};
  EXPECT_EQ(policy.place(small_request(), snap).primary, "alcf");
}

TEST(GreedyPolicy, BlackedOutLinkIsUnreachable) {
  GreedyPolicy policy;
  // nersc is otherwise far better, but its WAN path factor is 0.
  std::vector<FacilityState> snap = {make_state("nersc", 0, 60, 0, 8),
                                     make_state("alcf", 900, 900, 4, 2)};
  snap[0].link_bps = 0.0;
  EXPECT_EQ(policy.place(small_request(), snap).primary, "alcf");
}

TEST(GreedyPolicy, SickSiteLosesToHealthyButStillPlaceable) {
  GreedyPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 60, 0, 8),
                                     make_state("alcf", 600, 600, 0, 6)};
  snap[0].health = 0.1;  // below kMinHealth: behind every healthy site
  EXPECT_EQ(policy.place(small_request(), snap).primary, "alcf");

  // When every site is sick the least-bad one is still used — refusing to
  // place would lose the scan.
  snap[1].health = 0.1;
  EXPECT_EQ(policy.place(small_request(), snap).primary, "nersc");
}

TEST(HedgedPolicy, HedgesOnlyDeadlineScans) {
  HedgedPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 50, 100, 0, 6)};
  Placement no_deadline = policy.place(small_request(0.0), snap);
  EXPECT_EQ(no_deadline.primary, "nersc");
  EXPECT_EQ(no_deadline.hedge, "");

  Placement with_deadline = policy.place(small_request(3600.0), snap);
  EXPECT_EQ(with_deadline.primary, "nersc");
  EXPECT_EQ(with_deadline.hedge, "alcf");
  EXPECT_GE(with_deadline.hedge_delay, 120.0);  // kMinHedgeDelay floor
}

TEST(HedgedPolicy, NoHedgeWithoutAReachableRunnerUp) {
  HedgedPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 10, 100, 0, 6)};
  snap[1].link_bps = 0.0;  // runner-up blacked out: hedging it is pointless
  Placement p = policy.place(small_request(3600.0), snap);
  EXPECT_EQ(p.primary, "nersc");
  EXPECT_EQ(p.hedge, "");

  Placement solo = policy.place(small_request(3600.0),
                                {make_state("nersc", 10, 100, 0, 8)});
  EXPECT_EQ(solo.primary, "nersc");
  EXPECT_EQ(solo.hedge, "");
}

TEST(StaticDualPolicy, LaunchesNerscThenAlcfIgnoringAvailability) {
  StaticDualPolicy policy;
  std::vector<FacilityState> snap = {make_state("nersc", 10, 100, 0, 8),
                                     make_state("alcf", 10, 100, 0, 6),
                                     make_state("cloud", 1, 1, 0, 16)};
  snap[0].available = false;  // dark: the adapter holds the submission
  Placement p = policy.place(small_request(3600.0), snap);
  EXPECT_EQ(p.primary, "nersc");
  EXPECT_EQ(p.join, std::vector<std::string>{"alcf"});
  EXPECT_EQ(p.hedge, "");
  EXPECT_EQ(p.reason, "static_dual: nersc alcf");
}

TEST(PolicyFactory, ShippedNamesResolveUnknownThrows) {
  for (const char* name : {"static_dual", "round_robin", "greedy", "hedged"}) {
    auto policy = make_policy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_THROW(make_policy("oracle"), std::invalid_argument);
}

TEST(PolicyFactory, UnknownPlacementNameThrowsInBothWorlds) {
  // Release builds too: the name reaches make_policy from
  // FleetCampaignConfig::policy and FacilityConfig::placement.
  FleetCampaignConfig fleet_cfg;
  fleet_cfg.beamlines = 1;
  fleet_cfg.scans_per_beamline = 1;
  fleet_cfg.policy = "oracle";
  EXPECT_THROW({ FleetWorld world(fleet_cfg); }, std::invalid_argument);

  pipeline::FacilityConfig fac_cfg;
  fac_cfg.placement = "oracle";
  try {
    pipeline::Facility fac(fac_cfg);
    ADD_FAILURE() << "unknown placement name accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown placement policy: oracle");
  }
}

TEST(FacilityDirectory, InflightAccountingAndSnapshotOrder) {
  // Real adapters (the directory reads availability + queue stats straight
  // from them); the cloud adapter is the lightest to stand up.
  sim::Engine eng;
  hpc::CloudBurstAdapter adapter_a(eng, hpc::ComputeModel{});
  hpc::CloudBurstAdapter adapter_b(eng, hpc::ComputeModel{});

  FacilityDirectory dir;
  FacilityInfo a;
  a.name = "nersc";
  a.flow_name = "recon_nersc";
  a.adapter = &adapter_a;
  dir.add(std::move(a));
  FacilityInfo b;
  b.name = "alcf";
  b.flow_name = "recon_alcf";
  b.adapter = &adapter_b;
  dir.add(std::move(b));

  EXPECT_TRUE(dir.has("nersc"));
  EXPECT_FALSE(dir.has("cloud"));
  EXPECT_EQ(dir.flow_for("alcf"), "recon_alcf");
  EXPECT_EQ(dir.flow_for("cloud"), "");

  dir.note_placed("nersc");
  dir.note_placed("nersc");
  dir.note_finished("nersc");
  EXPECT_EQ(dir.inflight("nersc"), 1u);
  EXPECT_EQ(dir.inflight("alcf"), 0u);

  // Registration order is the snapshot order (deterministic tie-breaks).
  auto snap = dir.snapshot(0.0);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "nersc");
  EXPECT_EQ(snap[1].name, "alcf");
  EXPECT_EQ(snap[0].inflight_placements, 1u);
  EXPECT_FALSE(snap[0].has_link);  // no WAN path registered
}

// ---------------------------------------------------------------------------
// Join-all placement in the scheduler
// ---------------------------------------------------------------------------

// A recon branch that resolves `after` seconds in, completed or failed.
sim::Future<Status> timed_branch(sim::Engine* eng, Seconds after,
                                 bool fail) {
  co_await sim::delay(*eng, after);
  if (fail) co_return Error::make("boom", "branch failed");
  co_return Status::success();
}

TEST(FederatedScheduler, JoinAllWaitsForEveryBranchWithoutFailover) {
  sim::Engine eng;
  flow::RunDatabase db;
  flow::FlowEngine flows(eng, db);
  hpc::CloudBurstAdapter nersc_adapter(eng, hpc::ComputeModel{});
  hpc::CloudBurstAdapter alcf_adapter(eng, hpc::ComputeModel{});
  hpc::CloudBurstAdapter cloud_adapter(eng, hpc::ComputeModel{});
  FacilityDirectory dir;
  for (auto [name, adapter] :
       {std::pair{"nersc", &nersc_adapter}, std::pair{"alcf", &alcf_adapter},
        std::pair{"cloud", &cloud_adapter}}) {
    FacilityInfo info;
    info.name = name;
    info.flow_name = std::string("recon_") + name;
    info.adapter = adapter;
    dir.add(std::move(info));
  }
  // NERSC completes late; ALCF fails early; cloud must never launch.
  flows.register_flow("recon_nersc", [&eng](flow::FlowContext) {
    return timed_branch(&eng, 3000.0, false);
  });
  flows.register_flow("recon_alcf", [&eng](flow::FlowContext) {
    return timed_branch(&eng, 1000.0, true);
  });
  flows.register_flow("recon_cloud", [&eng](flow::FlowContext) {
    return timed_branch(&eng, 1.0, false);
  });

  StaticDualPolicy policy;
  SchedulerConfig cfg;
  cfg.failover_timeout = 600.0;  // expires several times per branch
  FederatedScheduler scheduler(eng, flows, dir, policy, cfg);
  auto fut = scheduler.submit(small_request(3600.0));

  // The ALCF failure neither resolves the scan nor triggers a placement.
  eng.run_until(2000.0);
  EXPECT_FALSE(fut.done());
  eng.run();
  ASSERT_TRUE(fut.done());
  const ScanResult& res = fut.value();

  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.facility, "");
  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts[0].facility, "nersc");
  EXPECT_EQ(res.attempts[0].result, "completed");
  EXPECT_DOUBLE_EQ(res.attempts[0].finished_at, 3000.0);
  EXPECT_EQ(res.attempts[1].facility, "alcf");
  EXPECT_EQ(res.attempts[1].result, "failed:boom");
  EXPECT_DOUBLE_EQ(res.attempts[1].finished_at, 1000.0);
  for (const auto& a : res.attempts) {
    EXPECT_FALSE(a.failover) << a.facility;
    EXPECT_FALSE(a.hedge) << a.facility;
  }
  // Resolved by the last branch, not the first.
  EXPECT_DOUBLE_EQ(res.finished_at, 3000.0);
  EXPECT_FALSE(res.failed_over);
  EXPECT_FALSE(res.hedged);
  EXPECT_EQ(scheduler.failovers(), 0u);
  EXPECT_EQ(scheduler.hedges_launched(), 0u);
  EXPECT_EQ(scheduler.placements(),
            (std::map<std::string, std::size_t>{{"alcf", 1}, {"nersc", 1}}));
  EXPECT_EQ(scheduler.scans_completed(), 0u);
  EXPECT_EQ(scheduler.scans_lost(), 1u);
  EXPECT_EQ(db.runs("recon_cloud").size(), 0u);
}

// ---------------------------------------------------------------------------
// Facility integration: a dynamic placement policy
// ---------------------------------------------------------------------------

TEST(ScanRequest, MakeRequestKeepsTheFleetByteModel) {
  // Every fleet shape: 16-bit frames, 3n/2 projections plus 20 reference
  // frames, one nz x n x n float32 volume back.
  for (std::size_t nz : {384u, 512u, 640u}) {
    for (std::size_t n : {1024u, 1280u, 1536u}) {
      data::ScanMetadata m;
      m.scan_id = "bl-01-scan-0";
      m.rows = nz;
      m.cols = n;
      m.n_angles = (3 * n) / 2;
      m.bit_depth = 16;
      const ScanRequest r = make_request(m, 3600.0);
      EXPECT_EQ(r.scan_id, "bl-01-scan-0");
      EXPECT_EQ(r.raw_bytes, Bytes((3 * n) / 2 + 20) * nz * n * 2);
      EXPECT_EQ(r.recon_bytes, Bytes(nz) * n * n * 4);
      EXPECT_EQ(r.nz, nz);
      EXPECT_EQ(r.n, n);
      EXPECT_EQ(r.deadline, 3600.0);
    }
  }
}

TEST(FacilityScheduled, OneDecisionReplacesTheDualBranches) {
  pipeline::FacilityConfig cfg;
  cfg.seed = 42;
  cfg.placement = "greedy";
  pipeline::Facility fac(cfg);

  std::vector<sim::Future<pipeline::ScanOutcome>> futs;
  pipeline::ScanOptions options;
  options.streaming = false;
  options.archive = false;
  for (int i = 0; i < 3; ++i) {
    fac.engine().schedule_at(double(i) * 180.0, [&fac, &futs, i, options] {
      futs.push_back(fac.process_scan(
          rigs::small_scan("sched-scan-" + std::to_string(i)), options));
    });
  }
  fac.engine().run();

  ASSERT_EQ(futs.size(), 3u);
  for (auto& fut : futs) {
    ASSERT_TRUE(fut.done());
    const pipeline::ScanOutcome& out = fut.value();
    // Greedy decides per scan instead of running both DOE branches.
    ASSERT_TRUE(out.sched.has_value());
    EXPECT_EQ(out.sched->reason.rfind("greedy:", 0), 0u) << out.sched->reason;
    EXPECT_TRUE(out.sched->completed);
    EXPECT_TRUE(fac.directory().has(out.sched->facility));
    EXPECT_GT(out.sched->turnaround(), 0.0);
  }
  EXPECT_EQ(fac.scheduler().scans_completed(), 3u);
  EXPECT_EQ(fac.scheduler().scans_lost(), 0u);
}

TEST(FacilityScheduled, BothWorldsShareOneSiteModel) {
  // Facility and FleetWorld embed the same sched::Sites: the scheduler in
  // either world places onto identical directory rows.
  pipeline::Facility fac;
  FleetWorld world;
  const auto& fac_rows = fac.directory().facilities();
  const auto& fleet_rows = world.directory().facilities();
  ASSERT_EQ(fac_rows.size(), 3u);
  ASSERT_EQ(fleet_rows.size(), fac_rows.size());
  const char* names[] = {"nersc", "alcf", "cloud"};
  for (std::size_t i = 0; i < fac_rows.size(); ++i) {
    const FacilityInfo& a = fac_rows[i];
    const FacilityInfo& b = fleet_rows[i];
    EXPECT_EQ(a.name, names[i]);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(a.flow_name, a.name + "_recon_flow");
    EXPECT_EQ(b.flow_name, a.flow_name);
    EXPECT_EQ(b.capacity_hint, a.capacity_hint) << a.name;
    ASSERT_NE(a.link, nullptr);
    ASSERT_NE(b.link, nullptr);
    EXPECT_EQ(a.link->name(), "esnet-" + a.name);
    EXPECT_EQ(b.link->name(), a.link->name());
    EXPECT_EQ(b.link->bandwidth(), a.link->bandwidth()) << a.name;
    EXPECT_EQ(b.link->latency(), a.link->latency()) << a.name;
  }
}

// ---------------------------------------------------------------------------
// Fleet campaigns
// ---------------------------------------------------------------------------

TEST(FleetCampaign, ThousandScansAcrossEightBeamlinesZeroLost) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 8;
  cfg.scans_per_beamline = 130;  // 1040 offered
  cfg.policy = "greedy";
  FleetCampaignReport rep = run_fleet_campaign(cfg);

  EXPECT_EQ(rep.offered, 1040u);
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_EQ(rep.lost, 0u);
  // Dynamic placement actually spreads load: more than one facility used.
  std::size_t used = 0, launches = 0;
  for (const auto& [facility, count] : rep.placements) {
    if (count > 0) ++used;
    launches += count;
  }
  EXPECT_GE(used, 2u);
  EXPECT_GE(launches, rep.offered);
  EXPECT_GT(rep.makespan, 0.0);
}

TEST(FleetCampaign, MidCampaignBlackoutLosesNothingAndReplaysExactly) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 8;
  cfg.scans_per_beamline = 16;  // 128 offered
  cfg.policy = "greedy";
  // Burst arrivals well past fleet capacity so every site carries a queue
  // when the fault lands — the outage then strands jobs *queued* at NERSC,
  // not just the narrow window of mid-submission scans.
  cfg.scan_interval = 10.0;
  // Aggressive failover so stalled placements re-route inside the test
  // horizon.
  cfg.scheduler.failover_timeout = 600.0;
  // NERSC goes dark mid-campaign for a full hour: placements already
  // in flight there stall (an outage reads as queue wait, never failure),
  // new placements avoid it via the availability gate, and the stalled
  // ones fail over after the timeout.
  cfg.scenario = {"nersc_blackout",
                  {{chaos::FaultKind::FacilityOutage, 120.0, 3600.0, "nersc",
                    0.0}}};

  FleetCampaignReport first = run_fleet_campaign(cfg);
  EXPECT_EQ(first.offered, 128u);
  EXPECT_EQ(first.completed, first.offered);
  EXPECT_EQ(first.lost, 0u) << "a facility blackout must never lose scans";
  EXPECT_GT(first.failovers, 0u)
      << "stalled placements must have re-routed somewhere";

  // Determinism under chaos: the same seed + fault schedule reproduces the
  // campaign byte-for-byte (same winners, same turnaround bits).
  FleetCampaignReport second = run_fleet_campaign(cfg);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.failovers, second.failovers);
  EXPECT_EQ(first.placements, second.placements);
}

TEST(FleetCampaign, HedgedPolicyCompletesDeadlineMix) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 4;
  cfg.scans_per_beamline = 24;
  cfg.policy = "hedged";
  cfg.deadline_every = 2;
  FleetCampaignReport rep = run_fleet_campaign(cfg);
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_EQ(rep.lost, 0u);
}

// ---------------------------------------------------------------------------
// Sharded merged queries == unsharded golden
// ---------------------------------------------------------------------------

TEST(FleetMergedQueries, MatchUnshardedDatabaseExactly) {
  FleetCampaignConfig cfg;
  cfg.beamlines = 4;
  cfg.scans_per_beamline = 16;
  cfg.policy = "round_robin";  // spreads runs over every shard + facility
  FleetWorld world(cfg);
  FleetCampaignReport rep = world.run();
  ASSERT_EQ(rep.lost, 0u);

  Fleet& fleet = world.fleet();
  const std::size_t kAll = 1u << 20;  // cover every run
  for (const char* flow_name : {"nersc_recon_flow", "alcf_recon_flow"}) {
    // Rebuild one unsharded database holding the same completed runs, in
    // the merge's global completion order, and ask it the Table-2 query.
    std::vector<flow::FlowRunRecord> recs;
    for (const flow::RunDatabase* db : fleet.run_dbs()) {
      for (auto& rec :
           db->runs_in_state(flow_name, flow::RunState::Completed)) {
        recs.push_back(std::move(rec));
      }
    }
    ASSERT_FALSE(recs.empty()) << flow_name;
    std::sort(recs.begin(), recs.end(),
              [](const flow::FlowRunRecord& a, const flow::FlowRunRecord& b) {
                if (a.finished_at != b.finished_at) {
                  return a.finished_at < b.finished_at;
                }
                if (a.created_at != b.created_at) {
                  return a.created_at < b.created_at;
                }
                return a.id < b.id;
              });
    flow::RunDatabase golden;
    for (const auto& rec : recs) {
      const std::string id =
          golden.create_run(flow_name, rec.created_at, rec.parameters);
      golden.mark_finished(id, flow::RunState::Completed, rec.finished_at);
    }

    Summary merged = flow::merged_duration_summary(fleet.run_dbs(), flow_name, kAll);
    Summary single = golden.duration_summary(flow_name, kAll);
    EXPECT_EQ(merged.n, single.n);
    EXPECT_DOUBLE_EQ(merged.mean, single.mean);
    EXPECT_DOUBLE_EQ(merged.stddev, single.stddev);
    EXPECT_DOUBLE_EQ(merged.median, single.median);
    EXPECT_DOUBLE_EQ(merged.min, single.min);
    EXPECT_DOUBLE_EQ(merged.max, single.max);
    EXPECT_DOUBLE_EQ(merged.p05, single.p05);
    EXPECT_DOUBLE_EQ(merged.p95, single.p95);

    // Same for the per-task quantile query.
    std::vector<std::pair<Seconds, double>> samples;
    for (const flow::RunDatabase* db : fleet.run_dbs()) {
      for (auto& s : db->completed_task_durations(flow_name, "recon")) {
        samples.push_back(s);
      }
    }
    ASSERT_FALSE(samples.empty()) << flow_name;
    std::sort(samples.begin(), samples.end());
    flow::RunDatabase task_golden;
    for (const auto& [finished_at, duration] : samples) {
      flow::TaskRunRecord t;
      t.flow_run_id = "golden-run";
      t.task_name = "recon";
      t.state = flow::RunState::Completed;
      t.attempts = 1;
      t.started_at = finished_at - duration;
      t.finished_at = finished_at;
      task_golden.record_task(std::move(t));
    }
    auto merged_q = flow::merged_task_duration_quantiles(
        fleet.run_dbs(), flow_name, "recon", kAll);
    auto single_q = task_golden.task_duration_quantiles("", "recon", kAll);
    EXPECT_EQ(merged_q.n, single_q.n);
    EXPECT_DOUBLE_EQ(merged_q.p50, single_q.p50);
    EXPECT_DOUBLE_EQ(merged_q.p95, single_q.p95);
    EXPECT_DOUBLE_EQ(merged_q.p99, single_q.p99);
  }
}

}  // namespace
}  // namespace alsflow::sched
