// Shared plumbing of the alsflow benchmark: command-line options, the
// metric catalogue, the report every workload fills, and the span recorder
// behind the traced run.
//
// The benchmark measures alsflow from the outside: it only calls the
// public API of the layers under src/, and every span it records wraps
// one such call. Spans inside the program (engine.run() split by
// component) are out of reach from here; see NOTES.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace alsflow::monitor {
class HealthMonitor;
}
namespace alsflow::sched {
class FacilityDirectory;
}

namespace alsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  // Tiny inputs, for the benchmark's own smoke tests. Never used for
  // reported numbers.
  bool smoke = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  // Internal: run as the 1-thread child of recon_volume.
  bool one_thread_probe = false;
};

// The seed the figures in NOTES.md are quoted at, and the held-out seed a
// later claim is checked on because it was not tuned on it.
constexpr std::uint64_t kTunedSeed = 42;
constexpr std::uint64_t kHoldoutSeed = 7;

// Seed of replica k of a run: replica 0 is the run's own seed, so the
// figures quoted at a seed reproduce from that seed alone.
constexpr std::uint64_t replica_seed(std::uint64_t seed, std::size_t k) {
  return seed + 1000003ull * k;
}

struct MetricDef {
  std::string name;
  const char* unit;
};

// Every run reports every metric of its mode, whatever the workload: a
// layer that a workload does not call reports 0 (see NOTES.md).
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

double now_s();  // steady clock, seconds
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
double peak_rss_mib();

// Order-sensitive FNV-1a, the fingerprint the determinism checks compare.
void fnv_mix(std::uint64_t* h, const void* data, std::size_t nbytes);
void fnv_mix(std::uint64_t* h, double v);

// What one run found: correctness, counts, and the metric values.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;

  // A correctness check: on failure, prints why, counts one failed unit
  // and marks the run incorrect.
  void check(bool ok, const std::string& what);
  // A human-readable line ("# ..."), e.g. a tail and its sample count.
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

// In-memory span recorder for the traced run. Each span covers one call
// from the benchmark into one layer of alsflow and records its layer, the
// API called, start, end and parent span. Spans are written out as a
// Chrome trace when the run ends. An inactive recorder does nothing; the
// traced run switches it off for some passes to measure its own overhead.
class Recorder {
 public:
  explicit Recorder(bool active) : active_(active) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void set_active(bool on) { active_ = on; }

  // One measured repetition; spans opened inside it add their duration to
  // the pass total of the metric they feed.
  void begin_pass();

  class Call {
   public:
    Call(Recorder& rec, const char* layer, const char* api,
         const char* metric);
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    Recorder& rec_;
    int index_ = -1;
  };

  // Median over passes of the per-pass total of `metric` (0 if no pass
  // recorded it).
  double median_total(const std::string& metric) const;
  std::size_t span_count() const { return spans_.size(); }

  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    const char* api;
    const char* metric;
    double start;
    double end;
    int parent;
  };
  bool active_;
  double origin_ = now_s();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::map<std::string, double>> pass_totals_;
};

// One pass of a simulated workload: build the world (set-up), run it to
// quiescence and pull the end-of-campaign report (measured).
struct SimPass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t offered = 0;
  std::size_t lost = 0;
  double turnaround_p50 = 0.0;   // simulated seconds
  double turnaround_tail = 0.0;  // simulated seconds, workload's tail
  std::uint64_t digest = 0;      // placement / outcome fingerprint
  // Simulated-time and count per-layer values; must repeat exactly for a
  // repeated seed.
  std::map<std::string, double> layer;
  // Failed correctness checks of this pass, one line each.
  std::vector<std::string> failures;
};

// Build one world from `seed` and, unless `setup_only`, run and report it.
using SimPassFn = SimPass (*)(const Options& opt, Recorder& rec,
                              std::uint64_t seed, bool setup_only);

// The loop shared by the simulated workloads. Open loop in simulated time:
// each world's arrivals are fixed in advance, whatever the backlog. The
// run cycles through `replicas` seeds derived from opt.seed until
// opt.seconds have passed and every replica has run at least once (one of
// them twice, for the determinism check). End-to-end simulated metrics are
// medians over replicas; wall_s is the mean over replicas of each one's
// median host time; set-up is the median over all set-ups.
void run_sim_passes(const Options& opt, Recorder& rec, Report& report,
                    std::size_t replicas, SimPassFn pass);

// End-of-campaign readings shared by the simulated workloads, into
// out.layer: per facility of `dir`, the HPC queue statistics and the ESnet
// link totals; and on a monitored world, the alerts, the trace assembler's
// stage split and the trace export (timed as monitor.assemble_wall_s and
// telemetry.export_wall_s).
void report_facilities(const alsflow::sched::FacilityDirectory& dir,
                       SimPass& out);
void report_monitoring(Recorder& rec, alsflow::monitor::HealthMonitor& mon,
                       double now, SimPass& out);

// Workloads. Each fills `report`; the caller prints it.
void run_fleet(const Options& opt, Recorder& rec, Report& report);
void run_shift(const Options& opt, Recorder& rec, Report& report);
void run_recon(const Options& opt, Recorder& rec, Report& report);
// recon_volume's 1-thread child: prints one "probe ..." line.
int run_recon_one_thread_probe(const Options& opt);

}  // namespace alsbench
