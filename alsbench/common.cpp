#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/stats.hpp"

namespace alsbench {

namespace {

std::vector<MetricDef> build_per_layer() {
  // The catalogue order is the output order. The benchmark's tests pin
  // it against BENCHMARK.json.
  std::vector<MetricDef> m;
  auto add = [&](std::string name, const char* unit) {
    m.push_back({std::move(name), unit});
  };
  add("failed_ratio", "ratio");
  add("sim.events", "count");
  add("sim.events_per_wall_s", "1/s");
  for (const char* link : {"esnet_nersc", "esnet_alcf", "esnet_cloud"}) {
    add(std::string("net.") + link + ".bytes", "B");
    add(std::string("net.") + link + ".goodput_gbps", "Gbit/s");
  }
  for (const char* f : {"nersc", "alcf", "cloud"}) {
    add(std::string("sched.launches.") + f, "count");
  }
  add("sched.failovers", "count");
  add("sched.hedges", "count");
  add("sched.useful_launch_ratio", "ratio");
  add("sched.launches_per_scan", "ratio");
  add("flow.runs", "count");
  add("flow.query_wall_s", "s");
  for (const char* stage : {"stage_out", "recon", "stage_back"}) {
    add(std::string("flow.") + stage + ".p50_sim_s", "s");
    add(std::string("flow.") + stage + ".p99_sim_s", "s");
  }
  for (const char* f : {"nersc", "alcf", "cloud"}) {
    add(std::string("hpc.") + f + ".queue_wait_p50_sim_s", "s");
    add(std::string("hpc.") + f + ".queue_wait_p95_sim_s", "s");
    add(std::string("hpc.") + f + ".execute_mean_sim_s", "s");
  }
  add("chaos.faults_applied", "count");
  for (const char* flow :
       {"new_file_832", "nersc_recon_flow", "alcf_recon_flow"}) {
    add(std::string("pipeline.") + flow + ".p50_sim_s", "s");
    add(std::string("pipeline.") + flow + ".success_rate", "ratio");
  }
  add("pipeline.first_slice_p50_sim_s", "s");
  add("pipeline.first_slice_p95_sim_s", "s");
  add("campaign.scans", "count");
  add("campaign.makespan_sim_s", "s");
  add("transfer.tasks", "count");
  add("transfer.bytes", "B");
  add("transfer.retries", "count");
  add("transfer.duration_p50_sim_s", "s");
  add("catalog.records", "count");
  for (const char* ep : {"beamline_data", "cfs", "eagle"}) {
    add(std::string("storage.") + ep + ".files", "count");
  }
  add("monitor.alerts", "count");
  add("monitor.assemble_wall_s", "s");
  for (const char* stage : {"acquisition", "transfer", "facility_queue",
                            "recon", "publish", "orchestrate"}) {
    add(std::string("monitor.stage.") + stage + "_sim_s", "s");
  }
  add("telemetry.spans", "count");
  add("telemetry.export_wall_s", "s");
  for (const char* alg : {"gridrec", "fbp", "sirt"}) {
    add(std::string("tomo.") + alg + ".wall_s", "s");
    add(std::string("tomo.") + alg + ".slices_per_s", "slices/s");
    add(std::string("tomo.") + alg + ".gop_per_s_computed", "Gop/s");
    add(std::string("tomo.") + alg + ".correlation", "ratio");
    add(std::string("tomo.") + alg + ".slices_per_s_1t", "slices/s");
    add(std::string("parallel.") + alg + ".speedup", "ratio");
  }
  add("tomo.stream.ingest_wall_s", "s");
  add("tomo.stream.finalize_wall_s", "s");
  add("tomo.stream.correlation", "ratio");
  add("parallel.threads", "count");
  add("parallel.gridrec_1t_mismatched_slices", "count");
  add("beamline.acquire_wall_s", "s");
  add("trace.spans", "count");
  add("trace.overhead_ratio", "ratio");
  return m;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"wall_s", "s"},
      {"peak_rss_mb", "MiB"},     {"turnaround_p50_s", "s"},
      {"turnaround_tail_s", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = build_per_layer();
  return defs;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return alsflow::percentile_sorted(v, q);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void fnv_mix(std::uint64_t* h, const void* data, std::size_t nbytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < nbytes; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}

void fnv_mix(std::uint64_t* h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_mix(h, &bits, sizeof bits);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("# CHECK FAILED: %s\n", what.c_str());
  ++failed;
  correct = false;
}

void Report::note(const char* fmt, ...) {
  std::printf("# ");
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

void Recorder::begin_pass() {
  if (active_) pass_totals_.emplace_back();
}

Recorder::Call::Call(Recorder& rec, const char* layer, const char* api,
                     const char* metric)
    : rec_(rec) {
  if (!rec_.active_) return;
  index_ = int(rec_.spans_.size());
  const int parent = rec_.open_.empty() ? -1 : rec_.open_.back();
  rec_.spans_.push_back({layer, api, metric, now_s(), -1.0, parent});
  rec_.open_.push_back(index_);
}

Recorder::Call::~Call() {
  if (index_ < 0) return;
  Span& s = rec_.spans_[std::size_t(index_)];
  s.end = now_s();
  rec_.open_.pop_back();
  if (s.metric != nullptr && !rec_.pass_totals_.empty()) {
    rec_.pass_totals_.back()[s.metric] += s.end - s.start;
  }
}

double Recorder::median_total(const std::string& metric) const {
  std::vector<double> v;
  for (const auto& totals : pass_totals_) {
    auto it = totals.find(metric);
    if (it != totals.end()) v.push_back(it->second);
  }
  return median(std::move(v));
}

bool Recorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                  s.api, s.layer, (s.start - origin_) * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent,
                  i + 1 == spans_.size() ? "" : ",");
    out << buf;
  }
  out << "]}\n";
  return bool(out);
}

}  // namespace alsbench
