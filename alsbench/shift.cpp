// shift_campaign: the real pipeline (pipeline::Facility) at production
// cadence over a quiet WAN, configured as in
// examples/multi_facility_campaign: 36 h of background Perlmutter load,
// pruning every 12 h, then run_campaign for 24 h at a mean interval of
// 270 s with 70% of scans streaming. Placement is the paper's static dual
// branch. Product telemetry and a HealthMonitor are on.
//
// It is the only workload that runs new_file_832, the Globus-style
// TransferService with checksums, the storage endpoints, SciCat, the
// streaming service and Slurm under background load.
#include <algorithm>
#include <cstdint>
#include <memory>

#include "common.hpp"
#include "common/telemetry.hpp"
#include "monitor/health_monitor.hpp"
#include "pipeline/campaign.hpp"
#include "pipeline/facility.hpp"

namespace alsbench {

namespace {

using namespace alsflow;

// Seed offsets: seed 42 reproduces the example's facility seed (2026) and
// campaign seed (99).
constexpr std::uint64_t kFacilitySeedOffset = 2026 - 42;
constexpr std::uint64_t kCampaignSeedOffset = 99 - 42;

SimPass shift_pass(const Options& opt, Recorder& rec, std::uint64_t seed,
                   bool setup_only) {
  auto& tel = telemetry::global();
  tel.set_enabled(true);
  tel.clear();

  SimPass out;
  const double t0 = now_s();
  std::unique_ptr<pipeline::Facility> facility;
  {
    Recorder::Call c(rec, "pipeline", "Facility::Facility", nullptr);
    pipeline::FacilityConfig fc;
    fc.seed = seed + kFacilitySeedOffset;
    facility = std::make_unique<pipeline::Facility>(fc);
  }
  std::unique_ptr<monitor::HealthMonitor> mon;
  {
    Recorder::Call c(rec, "monitor", "HealthMonitor::install", nullptr);
    monitor::HealthMonitor::Config mc;
    mc.capture_logs = false;
    mon = std::make_unique<monitor::HealthMonitor>(mc);
    mon->add_default_slos();
    pipeline::Facility* f = facility.get();
    mon->add_watermark("run_db_task_records", "run_db", "orchestrate", [f] {
      return double(f->run_db().task_records().size());
    });
    mon->install();
  }
  {
    Recorder::Call c(rec, "pipeline", "Facility::start_background_load",
                     nullptr);
    facility->start_background_load(hours(opt.smoke ? 4 : 36));
    facility->start_pruning(hours(12));
  }
  const double t1 = now_s();
  out.setup_s = t1 - t0;
  if (setup_only) {
    mon->uninstall();
    return out;
  }

  pipeline::CampaignConfig campaign;
  campaign.duration = hours(opt.smoke ? 2 : 24);
  campaign.scan_interval_mean = 270.0;
  campaign.streaming_fraction = 0.7;
  campaign.seed = seed + kCampaignSeedOffset;
  pipeline::CampaignReport rep;
  {
    Recorder::Call c(rec, "pipeline", "run_campaign", nullptr);
    rep = pipeline::run_campaign(*facility, campaign);
  }
  // End-of-shift report, as the example pulls it: Table 2 with its stage
  // split from the run database, alerts, per-scan traces, trace export.
  auto& layer = out.layer;
  auto& db = facility->run_db();
  {
    Recorder::Call c(rec, "flow", "RunDatabase::task_duration_quantiles",
                     "flow.query_wall_s");
    // The NERSC branch's three tasks in flow order: stage out, recon,
    // stage back.
    const auto tasks = db.task_names("nersc_recon_flow");
    const char* stages[] = {"stage_out", "recon", "stage_back"};
    for (std::size_t i = 0; i < 3 && i < tasks.size(); ++i) {
      const auto q =
          db.task_duration_quantiles("nersc_recon_flow", tasks[i], SIZE_MAX);
      layer[std::string("flow.") + stages[i] + ".p50_sim_s"] = q.p50;
      layer[std::string("flow.") + stages[i] + ".p99_sim_s"] = q.p99;
    }
    for (const char* flow :
         {"new_file_832", "nersc_recon_flow", "alcf_recon_flow"}) {
      const Summary s = db.duration_summary(flow, SIZE_MAX);
      layer[std::string("pipeline.") + flow + ".p50_sim_s"] = s.median;
      layer[std::string("pipeline.") + flow + ".success_rate"] =
          db.success_rate(flow);
    }
  }
  report_monitoring(rec, *mon, facility->engine().now(), out);
  mon->uninstall();
  out.wall_s = now_s() - t1;

  // Scan turnaround: acquisition start -> every branch back.
  const auto outcomes = facility->completed_outcomes();
  std::vector<double> turnaround, first_slice;
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& o : outcomes) {
    turnaround.push_back(o.finished_at - o.started_at);
    if (o.streaming) first_slice.push_back(o.streaming->preview_latency());
    fnv_mix(&h, o.scan.scan_id.data(), o.scan.scan_id.size());
    fnv_mix(&h, o.started_at);
    fnv_mix(&h, o.finished_at);
  }
  out.offered = rep.scans_started;
  out.lost = rep.scans_started - std::min(rep.scans_started,
                                          rep.scans_completed);
  out.turnaround_p50 = quantile(turnaround, 0.50);
  out.turnaround_tail = quantile(turnaround, 0.95);
  out.digest = h;

  // Table 2 ordering: new_file_832 << alcf_recon_flow < nersc_recon_flow.
  const double new_file = layer["pipeline.new_file_832.p50_sim_s"];
  const double nersc = layer["pipeline.nersc_recon_flow.p50_sim_s"];
  const double alcf = layer["pipeline.alcf_recon_flow.p50_sim_s"];
  if (!(new_file * 5.0 < alcf && alcf < nersc)) {
    out.failures.push_back("Table 2 ordering broken: new_file_832 " +
                           std::to_string(new_file) + " s, alcf " +
                           std::to_string(alcf) + " s, nersc " +
                           std::to_string(nersc) + " s (medians)");
  }

  layer["sim.events"] = double(facility->engine().executed_events());
  layer["pipeline.first_slice_p50_sim_s"] = quantile(first_slice, 0.50);
  layer["pipeline.first_slice_p95_sim_s"] = quantile(first_slice, 0.95);
  layer["flow.runs"] = double(db.total_runs());
  layer["campaign.scans"] = double(rep.scans_completed);
  double makespan = 0.0;
  for (const auto& o : outcomes) makespan = std::max(makespan, o.finished_at);
  layer["campaign.makespan_sim_s"] = makespan;

  const auto history = facility->globus().history();
  double bytes = 0.0, retries = 0.0;
  std::vector<double> durations;
  for (const auto& t : history) {
    bytes += double(t.bytes_moved);
    retries += double(t.retries);
    durations.push_back(t.duration());
  }
  layer["transfer.tasks"] = double(history.size());
  layer["transfer.bytes"] = bytes;
  layer["transfer.retries"] = retries;
  layer["transfer.duration_p50_sim_s"] = quantile(durations, 0.5);
  layer["catalog.records"] = double(facility->scicat().size());
  layer["storage.beamline_data.files"] =
      double(facility->beamline_data().file_count());
  layer["storage.cfs.files"] = double(facility->cfs().file_count());
  layer["storage.eagle.files"] = double(facility->eagle().file_count());

  report_facilities(facility->directory(), out);
  return out;
}

}  // namespace

void run_shift(const Options& opt, Recorder& rec, Report& report) {
  run_sim_passes(opt, rec, report, opt.smoke ? 2 : 8, &shift_pass);
}

}  // namespace alsbench
