// fleet_overload and fleet_outage: sched::FleetWorld under the greedy
// placement policy.
//
// fleet_overload is the scale sweep's m=8 point: 8m beamlines x 128 scans
// at 60 s cadence over 8m NERSC nodes and 6m ALCF workers, while the ESnet
// links stay at 10/10/5 Gbps. The WAN saturates, link processor sharing
// dominates host time, and the timeout-driven failover storm runs. Product
// telemetry stays off, so telemetry work does not show here.
//
// fleet_outage is the m=1 fleet at 30 s cadence with NERSC dark from
// 1,800 s to 5,400 s: the failovers are real (the same world without the
// fault has none) and the links are not congested. Product telemetry and
// a HealthMonitor with the default SLOs are part of its configuration.
#include <cstdint>
#include <memory>

#include "common.hpp"
#include "common/telemetry.hpp"
#include "monitor/health_monitor.hpp"
#include "sched/campaign.hpp"

namespace alsbench {

namespace {

using namespace alsflow;

sched::FleetCampaignConfig fleet_config(const Options& opt,
                                        std::uint64_t seed) {
  sched::FleetCampaignConfig cfg;
  cfg.seed = seed;
  cfg.policy = "greedy";
  if (opt.workload == "fleet_overload") {
    const int m = opt.smoke ? 1 : 8;
    cfg.beamlines = 8 * m;
    cfg.scans_per_beamline = opt.smoke ? 16 : 128;
    cfg.scan_interval = 60.0;
    cfg.nersc_nodes = 8 * m;
    cfg.alcf_workers = 6 * m;
  } else {
    cfg.beamlines = 8;
    cfg.scans_per_beamline = opt.smoke ? 16 : 128;
    cfg.scan_interval = 30.0;
    // Smoke inputs end their arrivals at 480 s, so the outage moves in.
    const Seconds at = opt.smoke ? 60.0 : 1800.0;
    const Seconds span = opt.smoke ? 600.0 : 3600.0;
    cfg.scenario = {"nersc_outage",
                    {{chaos::FaultKind::FacilityOutage, at, span, "nersc",
                      0.0}}};
  }
  return cfg;
}

SimPass fleet_pass(const Options& opt, Recorder& rec, std::uint64_t seed,
                   bool setup_only) {
  const bool monitored = opt.workload == "fleet_outage";
  auto& tel = telemetry::global();
  tel.set_enabled(monitored);
  tel.clear();

  SimPass out;
  const double t0 = now_s();
  std::unique_ptr<sched::FleetWorld> world;
  {
    Recorder::Call c(rec, "sched", "FleetWorld::FleetWorld", nullptr);
    world = std::make_unique<sched::FleetWorld>(fleet_config(opt, seed));
  }
  std::unique_ptr<monitor::HealthMonitor> mon;
  if (monitored) {
    Recorder::Call c(rec, "monitor", "HealthMonitor::install", nullptr);
    monitor::HealthMonitor::Config mc;
    mc.capture_logs = false;
    mon = std::make_unique<monitor::HealthMonitor>(mc);
    mon->add_default_slos();
    mon->install();
  }
  const double t1 = now_s();
  out.setup_s = t1 - t0;
  if (setup_only) {
    if (mon) mon->uninstall();
    return out;
  }

  sched::FleetCampaignReport rep;
  {
    Recorder::Call c(rec, "sched", "FleetWorld::run", nullptr);
    rep = world->run();
  }
  // End-of-campaign report: the fleet-wide Table-2 stage split from the
  // sharded run databases, and on the monitored world the alerts, the
  // per-scan stage split and the trace export.
  auto& layer = out.layer;
  const auto dbs = world->fleet().run_dbs();
  {
    Recorder::Call c(rec, "flow", "merged_task_duration_quantiles",
                     "flow.query_wall_s");
    for (const char* stage : {"stage_out", "recon", "stage_back"}) {
      const auto q = flow::merged_task_duration_quantiles(dbs, "", stage,
                                                          SIZE_MAX);
      layer[std::string("flow.") + stage + ".p50_sim_s"] = q.p50;
      layer[std::string("flow.") + stage + ".p99_sim_s"] = q.p99;
    }
  }
  if (monitored) {
    report_monitoring(rec, *mon, world->engine().now(), out);
    mon->uninstall();
  }
  out.wall_s = now_s() - t1;

  out.offered = rep.offered;
  out.lost = rep.offered - rep.completed;
  out.turnaround_p50 = rep.turnaround.median;
  out.turnaround_tail = rep.turnaround_p99;
  out.digest = rep.digest;

  layer["sim.events"] = double(world->engine().executed_events());
  std::size_t launches = 0;
  for (const auto& [facility, n] : rep.placements) {
    layer["sched.launches." + facility] = double(n);
    launches += n;
  }
  layer["sched.failovers"] = double(rep.failovers);
  layer["sched.hedges"] = double(rep.hedges);
  if (launches > 0) {
    layer["sched.useful_launch_ratio"] =
        double(rep.completed) / double(launches);
  }
  if (rep.completed > 0) {
    layer["sched.launches_per_scan"] =
        double(launches) / double(rep.completed);
  }
  double runs = 0.0;
  for (const auto* db : dbs) runs += double(db->total_runs());
  layer["flow.runs"] = runs;
  report_facilities(world->directory(), out);
  layer["chaos.faults_applied"] = double(world->chaos().applied_count());
  if (!fleet_config(opt, seed).scenario.events.empty() &&
      world->chaos().applied_count() == 0) {
    out.failures.push_back("the NERSC outage was not applied");
  }
  layer["campaign.scans"] = double(rep.completed);
  layer["campaign.makespan_sim_s"] = rep.makespan;
  return out;
}

}  // namespace

void run_fleet(const Options& opt, Recorder& rec, Report& report) {
  // Replicas per run: enough that the median over replicas damps the
  // seed-to-seed spread of the simulated tails; the overloaded fleet costs
  // seconds of host time per world, the m=1 fleet milliseconds.
  const std::size_t replicas =
      opt.workload == "fleet_overload" ? 5 : (opt.smoke ? 2 : 24);
  run_sim_passes(opt, rec, report, replicas, &fleet_pass);
}

}  // namespace alsbench
