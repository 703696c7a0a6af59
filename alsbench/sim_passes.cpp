#include <algorithm>

#include "common.hpp"
#include "common/telemetry.hpp"
#include "monitor/health_monitor.hpp"
#include "monitor/trace_assembler.hpp"
#include "sched/directory.hpp"

namespace alsbench {

namespace {

// Set-up is cheap for the simulated worlds, so the run repeats it until
// the median rests on this many samples.
constexpr std::size_t kMinSetups = 15;

// Fingerprint of everything a repeated seed must reproduce exactly.
std::uint64_t sim_digest(const SimPass& p) {
  std::uint64_t h = p.digest;
  fnv_mix(&h, double(p.offered));
  fnv_mix(&h, double(p.lost));
  fnv_mix(&h, p.turnaround_p50);
  fnv_mix(&h, p.turnaround_tail);
  for (const auto& [name, value] : p.layer) {
    fnv_mix(&h, name.data(), name.size());
    fnv_mix(&h, value);
  }
  return h;
}

}  // namespace

void run_sim_passes(const Options& opt, Recorder& rec, Report& report,
                    std::size_t replicas, SimPassFn pass) {
  std::vector<SimPass> first(replicas);
  std::vector<std::uint64_t> digests(replicas, 0);
  std::vector<double> setups, walls, traced_walls, event_rates;
  std::vector<std::vector<double>> replica_walls(replicas);
  std::size_t repeats = 0;

  const double start = now_s();
  for (std::size_t p = 0;; ++p) {
    const std::size_t r = p % replicas;
    const bool untraced_seen = !walls.empty();
    if (p >= replicas + 1 && now_s() - start >= opt.seconds &&
        (!opt.trace || untraced_seen)) {
      break;
    }
    // The traced run alternates whole cycles of replicas with and without
    // spans, so both halves see the same inputs.
    const bool traced = opt.trace && (p / replicas) % 2 == 0;
    rec.set_active(traced);
    rec.begin_pass();
    SimPass sp = pass(opt, rec, replica_seed(opt.seed, r), false);
    setups.push_back(sp.setup_s);
    (traced ? traced_walls : walls).push_back(sp.wall_s);
    if (!traced) {
      replica_walls[r].push_back(sp.wall_s);
      event_rates.push_back(sp.layer["sim.events"] / sp.wall_s);
    }

    const std::uint64_t d = sim_digest(sp);
    if (p < replicas) {
      digests[r] = d;
      first[r] = std::move(sp);
    } else {
      ++repeats;
      report.check(d == digests[r],
                   "replica " + std::to_string(r) +
                       " is not deterministic: a repeated seed changed the "
                       "placement digest or a simulated-time value");
    }
  }
  rec.set_active(false);
  while (setups.size() < kMinSetups) {
    setups.push_back(pass(opt, rec, replica_seed(opt.seed, 0), true).setup_s);
  }

  std::vector<double> p50s, tails;
  double wall_sum = 0.0;
  std::size_t wall_n = 0;
  for (std::size_t r = 0; r < replicas; ++r) {
    if (!replica_walls[r].empty()) {
      wall_sum += median(replica_walls[r]);
      ++wall_n;
    }
    const SimPass& sp = first[r];
    report.attempted += sp.offered;
    report.failed += sp.lost;
    report.check(sp.lost == 0, "replica " + std::to_string(r) + " lost " +
                                   std::to_string(sp.lost) + " of " +
                                   std::to_string(sp.offered) + " scans");
    for (const auto& f : sp.failures) {
      report.check(false, "replica " + std::to_string(r) + ": " + f);
    }
    p50s.push_back(sp.turnaround_p50);
    tails.push_back(sp.turnaround_tail);
    report.note("replica %zu seed %llu: %zu scans, turnaround p50 %.3f s "
                "tail %.3f s (simulated), digest %016llx",
                r, (unsigned long long)replica_seed(opt.seed, r), sp.offered,
                sp.turnaround_p50, sp.turnaround_tail,
                (unsigned long long)sp.digest);
  }
  report.note("passes %zu (%zu repeated a seed), untraced %zu, traced %zu; "
              "wall median %.4f s p90 %.4f s max %.4f s; set-up median "
              "%.6f s over %zu",
              walls.size() + traced_walls.size(), repeats, walls.size(),
              traced_walls.size(), median(walls), quantile(walls, 0.9),
              quantile(walls, 1.0), median(setups), setups.size());

  auto& e2e = report.end_to_end;
  e2e["setup_s"] = median(setups);
  // Host time per world: each replica's median over its passes (damps
  // host noise), averaged over replicas (damps seed-to-seed work).
  e2e["wall_s"] = wall_sum / double(std::max<std::size_t>(1, wall_n));
  e2e["turnaround_p50_s"] = median(p50s);
  e2e["turnaround_tail_s"] = median(tails);

  if (opt.trace) {
    auto& layer = report.per_layer;
    // Simulated-time and count metrics come from replica 0, whose seed is
    // the run's own: the figures quoted at a seed reproduce exactly.
    for (const auto& [name, value] : first[0].layer) layer[name] = value;
    layer["sim.events_per_wall_s"] = median(event_rates);
    for (const char* m : {"flow.query_wall_s", "monitor.assemble_wall_s",
                          "telemetry.export_wall_s"}) {
      layer[m] = rec.median_total(m);
    }
    layer["trace.overhead_ratio"] =
        median(traced_walls) / median(walls) - 1.0;
  }
}

void report_facilities(const alsflow::sched::FacilityDirectory& dir,
                       SimPass& out) {
  for (const auto& info : dir.facilities()) {
    const alsflow::hpc::QueueStats q = info.adapter->queue_stats();
    const std::string hpc = "hpc." + info.name;
    out.layer[hpc + ".queue_wait_p50_sim_s"] = q.queue_wait_p50;
    out.layer[hpc + ".queue_wait_p95_sim_s"] = q.queue_wait_p95;
    out.layer[hpc + ".execute_mean_sim_s"] = q.exec_mean;
    const std::string net = "net.esnet_" + info.name;
    out.layer[net + ".bytes"] = double(info.link->total_bytes_sent());
    out.layer[net + ".goodput_gbps"] =
        info.link->mean_throughput() * 8.0 / 1e9;
  }
}

void report_monitoring(Recorder& rec, alsflow::monitor::HealthMonitor& mon,
                       double now, SimPass& out) {
  auto& tel = alsflow::telemetry::global();
  {
    Recorder::Call c(rec, "monitor", "HealthMonitor::sweep", nullptr);
    mon.sweep(now);
    out.layer["monitor.alerts"] = double(mon.alerts().size());
  }
  {
    Recorder::Call c(rec, "monitor", "ScanTraceAssembler",
                     "monitor.assemble_wall_s");
    alsflow::monitor::ScanTraceAssembler traces(tel.tracer().spans());
    for (const char* stage : alsflow::monitor::kStages) {
      double sum = 0.0;
      for (const auto& t : traces.traces()) sum += t.stage_seconds(stage);
      out.layer[std::string("monitor.stage.") + stage + "_sim_s"] = sum;
    }
  }
  {
    Recorder::Call c(rec, "telemetry", "Tracer::chrome_trace_json",
                     "telemetry.export_wall_s");
    out.layer["telemetry.spans"] = double(tel.tracer().span_count());
    if (tel.tracer().chrome_trace_json().empty()) {
      out.failures.push_back("the trace export is empty");
    }
  }
}

}  // namespace alsbench
